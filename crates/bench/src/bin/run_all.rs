//! Runs every experiment binary in paper order.
//!
//! Equivalent to executing `exp_fig2`, `exp_fig3`, `exp_fig5`,
//! `exp_table2`, `exp_fig7`, `exp_fig8`, `exp_table3`, `exp_table4`,
//! `exp_fig9`, `exp_fig10a` and `exp_fig10b` in sequence. Set
//! `CAPSYS_FAST=1` for a reduced smoke run.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_fig2",
    "exp_fig3",
    "exp_fig5",
    "exp_table2",
    "exp_fig7",
    "exp_fig8",
    "exp_table3",
    "exp_table4",
    "exp_fig9",
    "exp_fig10a",
    "exp_fig10b",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        let path = bin_dir.join(exp);
        eprintln!(">>> running {exp}");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("!!! {exp} exited with {s}");
                failed.push(*exp);
            }
            Err(e) => {
                eprintln!("!!! {exp} failed to start: {e}");
                failed.push(*exp);
            }
        }
    }
    if failed.is_empty() {
        eprintln!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nfailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
