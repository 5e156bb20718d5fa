//! `report::write_json` follows `UTILCAST_BENCH_DIR`, so smoke runs of the
//! figure binaries leave the committed `results/` files alone. The test
//! sets a process-wide variable, so it lives alone in this test binary.

use std::fs;
use std::path::Path;

use utilcast_bench::report::write_json;

#[test]
fn write_json_honours_bench_dir() {
    let dir = std::env::temp_dir().join(format!("utilcast-bench-dir-{}", std::process::id()));
    std::env::set_var("UTILCAST_BENCH_DIR", &dir);
    write_json("bench_dir_probe", &vec![1.0f64, 2.0]);
    std::env::remove_var("UTILCAST_BENCH_DIR");
    let written = fs::read_to_string(dir.join("bench_dir_probe.json"));
    let _ = fs::remove_dir_all(&dir);
    assert!(written.is_ok_and(|json| json.contains('2')));
    assert!(!Path::new("results/bench_dir_probe.json").exists());
}
