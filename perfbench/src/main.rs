//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a report (every metric with its unit and sample count, and the
//! run's provenance), then one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 on a correctness failure or error, 3
//! when an open-loop run could not keep its schedule (no result then).

use perfbench::{run, Args, OUT_DIR};
use std::io::Write;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut text = outcome.report.join("\n");
    text.push('\n');
    if let Some(why) = &outcome.invalid {
        text.push_str(&format!("INVALID {why}\n"));
    } else {
        text.push_str(&outcome.json());
        text.push('\n');
    }
    let file = std::path::Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&file, &text);
    print!("{text}");
    let _ = std::io::stdout().flush();
    if outcome.invalid.is_some() {
        std::process::exit(3);
    }
    if !outcome.correct {
        std::process::exit(1);
    }
}
