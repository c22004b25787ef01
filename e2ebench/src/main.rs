//! Command-line entry: `e2ebench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`. Prints notes prefixed with `#`, then the result as one
//! JSON line. Exits 0 only when every output passed its checks.
//!
//! `e2ebench --boot-once <snapshot>` is the child a timed run starts for
//! each daemon boot it times.

use e2ebench::run::{boot_once, run, Args, BOOT_FLAG};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, snapshot] = argv.as_slice() {
        if flag == BOOT_FLAG {
            return match boot_once(Path::new(snapshot)) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Inputs and traces live under the working directory (the checkout).
    let root = Path::new(".bench_data");
    let dir = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2ebench: creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &dir, &root.join("traces"));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(r) => {
            for note in &r.notes {
                println!("# {note}");
            }
            let line = r.to_json();
            println!("{line}");
            if line.starts_with("{\"correct\": true") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
