//! `simserved` — serve a persisted similarity index over TCP.
//!
//! ```sh
//! simserved --index idx/ [--addr 127.0.0.1:7878] [--workers N]
//!           [--shards N] [--wal DIR/] [--fsync always|never|N] [...]
//! ```
//!
//! Every flag is documented on [`simserve::startup::serve`], which this
//! binary and `simseq serve` both run.

fn main() {
    simserve::startup::main(simserve::startup::serve, simserve::startup::SERVE_USAGE);
}
