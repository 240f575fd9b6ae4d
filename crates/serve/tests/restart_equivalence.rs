//! The acceptance pin for the persistent store: after a service restart, a
//! duplicate query answered from disk is **byte-identical** to a cold
//! in-process solve — no model evaluation, same bytes.

use cactid_serve::{ServeConfig, Service};

fn answer(svc: &Service, request: &str) -> String {
    let (mut lines, _) = svc.handle_line(request);
    assert_eq!(lines.len(), 1);
    lines.remove(0)
}

#[test]
fn warm_restart_answers_are_byte_identical_to_cold_solves() {
    let dir = std::env::temp_dir().join(format!("cactid-serve-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("solutions.store");
    std::fs::remove_file(&store).ok();
    let config = ServeConfig {
        threads: 1,
        store: Some(store.clone()),
    };
    let requests = [
        r#"{"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}"#,
        r#"{"id":2,"op":"solve","size":8388608,"assoc":16,"cell":"lp-dram","node":32}"#,
        r#"{"id":3,"op":"solve","size":1073741824,"block":8,"banks":8,"cell":"comm-dram","node":78,"main_memory":{"io":8,"burst":8,"prefetch":8,"page":8192}}"#,
    ];

    // Cold: a fresh service populates the store by actually solving.
    let cold: Vec<String> = {
        let svc = Service::new(&config).unwrap();
        let cold = requests.iter().map(|r| answer(&svc, r)).collect();
        assert_eq!(svc.store().len(), 3);
        assert_eq!(svc.solved(), 3, "cold answers were solved");
        cold
    };
    for line in &cold {
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }

    // Restart: a new process-equivalent service reopens the same file.
    let svc = Service::new(&config).unwrap();
    assert_eq!(svc.store().len(), 3, "the store reloaded warm");
    for (request, cold_line) in requests.iter().zip(&cold) {
        let warm = answer(&svc, request);
        assert_eq!(&warm, cold_line, "warm answer must be bitwise cold");
    }
    assert_eq!(
        svc.solved(),
        0,
        "every warm answer came from the store — nothing was solved"
    );

    // A duplicate under a different id differs only in the idx prefix.
    let relabeled = answer(
        &svc,
        r#"{"id":99,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}"#,
    );
    assert!(relabeled.starts_with("{\"idx\":99,"));
    let body = |l: &str| l.split_once(',').map(|(_, b)| b.to_string()).unwrap();
    assert_eq!(body(&relabeled), body(&cold[0]));
    assert_eq!(svc.solved(), 0);

    // Cross-check against a store-less service: the cold in-process solve
    // path and the warm spliced path agree byte-for-byte.
    let store_less = Service::new(&ServeConfig::default()).unwrap();
    for (request, cold_line) in requests.iter().zip(&cold) {
        assert_eq!(&answer(&store_less, request), cold_line);
    }

    std::fs::remove_dir_all(&dir).ok();
}
