//! JSON encoding for the core model types, via
//! [`capsys_util::json::ToJson`] / [`FromJson`].
//!
//! This is the serialization surface that replaced the old `serde`
//! derives: placement plans, worker specs, and clusters encode to
//! deterministic JSON (object keys in declared order), so plans can be
//! written to golden files, diffed across runs, and fed back in.

use capsys_util::json::{obj, req, FromJson, Json, JsonError, ToJson};

use crate::cluster::WorkerId;
use crate::cluster::{Cluster, WorkerSpec};
use crate::placement::Placement;

impl ToJson for WorkerSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("slots", self.slots.to_json()),
            ("cpu_cores", self.cpu_cores.to_json()),
            ("disk_bandwidth", self.disk_bandwidth.to_json()),
            ("network_bandwidth", self.network_bandwidth.to_json()),
            ("link_latency", self.link_latency.to_json()),
        ])
    }
}

impl FromJson for WorkerSpec {
    fn from_json(v: &Json) -> Result<WorkerSpec, JsonError> {
        let spec = WorkerSpec::new(
            req(v, "slots")?,
            req(v, "cpu_cores")?,
            req(v, "disk_bandwidth")?,
            req(v, "network_bandwidth")?,
        );
        // Optional for backward compatibility: specs written before
        // heterogeneous fleets carry no latency field (datacenter-local).
        match v.get("link_latency") {
            Some(_) => Ok(spec.with_link_latency(req(v, "link_latency")?)),
            None => Ok(spec),
        }
    }
}

impl ToJson for Cluster {
    fn to_json(&self) -> Json {
        Json::Arr(self.workers().iter().map(|w| w.spec.to_json()).collect())
    }
}

impl ToJson for Placement {
    fn to_json(&self) -> Json {
        Json::Arr(self.assignment().iter().map(|w| w.0.to_json()).collect())
    }
}

impl FromJson for Placement {
    fn from_json(v: &Json) -> Result<Placement, JsonError> {
        let ids = Vec::<usize>::from_json(v)
            .map_err(|e| JsonError::msg(format!("placement: {}", e.message)))?;
        Ok(Placement::new(ids.into_iter().map(WorkerId).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_spec_round_trips() {
        let spec = WorkerSpec::new(4, 4.0, 1e8, 1.25e9).with_link_latency(0.02);
        let json = spec.to_json().to_string();
        assert_eq!(
            json,
            r#"{"slots":4,"cpu_cores":4,"disk_bandwidth":100000000,"network_bandwidth":1250000000,"link_latency":0.02}"#
        );
        let back = WorkerSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn worker_spec_without_latency_field_defaults_to_zero() {
        let old = r#"{"slots":4,"cpu_cores":4,"disk_bandwidth":1,"network_bandwidth":1}"#;
        let back = WorkerSpec::from_json(&Json::parse(old).unwrap()).unwrap();
        assert_eq!(back.link_latency, 0.0);
    }

    #[test]
    fn placement_round_trips() {
        let plan = Placement::new(vec![WorkerId(0), WorkerId(2), WorkerId(1)]);
        let json = plan.to_json().to_string();
        assert_eq!(json, "[0,2,1]");
        let back = Placement::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.assignment(), plan.assignment());
    }

    #[test]
    fn cluster_encodes_every_worker() {
        let c = Cluster::homogeneous(3, WorkerSpec::new(2, 2.0, 1e8, 1e9)).unwrap();
        let v = c.to_json();
        assert_eq!(v.as_array().unwrap().len(), 3);
    }
}
