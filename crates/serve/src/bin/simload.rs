//! `simload` — closed-loop load generator for `simserved`.
//!
//! ```sh
//! simload --addr 127.0.0.1:7878 --conns 8 --ops 100 [--seed 1]
//!         [--ma 5..20] [--rho 0.96] [--engine mt|st|scan|auto]
//!         [--verify-index idx/] [--timeout-ms MS] [--failover A,B]
//! ```
//!
//! Runs [`simserve::startup::load`], as `simseq load` does. Exits
//! non-zero on any error response or (with `--verify-index`) any
//! result-parity failure.

fn main() {
    simserve::startup::main(simserve::startup::load, simserve::startup::LOAD_USAGE);
}
