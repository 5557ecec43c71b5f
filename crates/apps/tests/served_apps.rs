//! The application algorithms reading the snapshot handle a live
//! `MappingService` serves, across publish and rollback.

use mapsynth_apps::{autocorrect, autofill, autojoin};
use mapsynth_serve::{MappingService, SnapshotBuilder};
use std::sync::Arc;

fn pairs(raw: &[(&str, &str)]) -> Vec<(String, String)> {
    raw.iter()
        .map(|(l, r)| (l.to_string(), r.to_string()))
        .collect()
}

fn service() -> Arc<MappingService> {
    let service = Arc::new(MappingService::new());
    let mut b = SnapshotBuilder::with_shards(8);
    b.add_raw(
        Some("state->abbr".into()),
        &pairs(&[
            ("California", "CA"),
            ("Washington", "WA"),
            ("Oregon", "OR"),
            ("Texas", "TX"),
        ]),
    );
    b.add_raw(
        Some("city->state".into()),
        &pairs(&[
            ("San Francisco", "California"),
            ("Seattle", "Washington"),
            ("Houston", "Texas"),
        ]),
    );
    b.add_raw(
        Some("ticker->company".into()),
        &pairs(&[
            ("GE", "General Electric"),
            ("WMT", "Walmart"),
            ("MSFT", "Microsoft Corp."),
        ]),
    );
    service.publish(b.build());
    service
}

#[test]
fn autocorrect_from_served_snapshot() {
    let svc = service();
    let snap = svc.snapshot();
    let column = ["California", "Washington", "Oregon", "CA"];
    let fixes = autocorrect(&snap, &column, 1).expect("mix detected");
    assert_eq!(fixes.len(), 1);
    assert_eq!(fixes[0].from, "CA");
    assert_eq!(fixes[0].to, "california");
}

#[test]
fn autofill_from_served_snapshot() {
    let svc = service();
    let snap = svc.snapshot();
    let keys = ["San Francisco", "Seattle", "Houston"];
    let target = [Some("California"), None, None];
    let fill = autofill(&snap, &keys, &target, 1).expect("mapping found");
    assert_eq!(fill.mapping, 1);
    let values: Vec<&str> = fill.filled.iter().map(|(_, v)| v.as_str()).collect();
    assert_eq!(values, vec!["washington", "texas"]);
}

#[test]
fn autojoin_from_served_snapshot() {
    let svc = service();
    let snap = svc.snapshot();
    let left = ["GE", "WMT", "MSFT"];
    let right = ["Walmart", "General Electric", "Microsoft Corp."];
    let join = autojoin(&snap, &left, &right, 0.5).expect("bridge found");
    assert_eq!(join.mapping, 2);
    assert!(join.left_keys_on_left);
    assert_eq!(join.rows.len(), 3);
    assert!(join.rows.contains(&(0, 1)));
}

#[test]
fn publish_moves_traffic_rollback_restores() {
    let svc = service();
    let before = svc.snapshot();
    // A second session publishes a revised snapshot…
    let mut b = SnapshotBuilder::with_shards(8);
    b.add_raw(
        Some("state->abbr-v2".into()),
        &pairs(&[("California", "Calif."), ("Washington", "Wash.")]),
    );
    let v2 = svc.publish(b.build());
    assert!(v2 > before.version());
    let after = svc.snapshot();
    assert_eq!(
        after.lookup("California").unwrap().forward(0),
        Some("calif")
    );
    // …the old handle keeps serving its own version…
    assert_eq!(before.lookup("California").unwrap().forward(0), Some("ca"));
    // …and rollback restores the previous version for new handles.
    assert_eq!(svc.rollback(), Some(before.version()));
    let restored = svc.snapshot();
    assert_eq!(
        restored.lookup("California").unwrap().forward(0),
        Some("ca")
    );
}
