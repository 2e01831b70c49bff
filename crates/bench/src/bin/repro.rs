//! `repro <name>... [flags]`: run the named [`nicsim_bench::REGISTRY`]
//! entries, each regenerating one table or figure into
//! `results/<name>.json` (`repro all`: every entry). Every name and
//! flag is checked before the first run; a bad one exits with status 2.

#![forbid(unsafe_code)]

use nicsim_bench::{select, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let split = argv.iter().position(|a| a.starts_with('-'));
    let (names, flags) = argv.split_at(split.unwrap_or(argv.len()));
    let entries = select(names, flags).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    // Parsed again per entry so that each experiment's wall clock
    // starts when it runs.
    for e in entries {
        (e.run)(&Args::parse_from(e.name, e.reads, flags).expect("checked by select"));
    }
}
