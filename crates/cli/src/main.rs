//! `simseq` — similarity-based time-series queries from the command line.
//!
//! ```sh
//! simseq gen   --kind stocks --count 1068 --len 128 --seed 7 --out data.csv
//! simseq build --data data.csv --out idx/
//! simseq info  --index idx/
//! simseq query --index idx/ --query-index 42 --ma 5..34 --rho 0.96
//! simseq join  --index idx/ --ma 5..14 --rho 0.99
//! simseq nn    --index idx/ --query-index 42 --k 5 --ma 2..20
//! simseq build --data data.csv --out sidx/ --shards 4
//! simseq query --index sidx/ --query-index 42 --ma 5..34 --rho 0.96
//! simseq serve --index idx/ --addr 127.0.0.1:7878
//! simseq load  --addr 127.0.0.1:7878 --conns 8 --ops 100
//! simseq promote --addr 127.0.0.1:7879
//! simseq metrics --addr 127.0.0.1:7878
//! simseq recover --index idx/ --wal wal/
//! ```

mod commands;

use simserve::opts::Opts;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first().filter(|(sub, _)| *sub != "help") else {
        print!("{}", commands::USAGE);
        return;
    };
    let result = match sub.as_str() {
        "serve" => simserve::startup::serve(rest),
        "load" => simserve::startup::load(rest),
        other => match commands::COMMANDS.iter().find(|(name, ..)| *name == other) {
            Some((_, flags, run)) => Opts::parse(rest, &flags.join(" "))
                .map_err(String::from)
                .and_then(|opts| run(&opts)),
            None => Err(format!("unknown subcommand `{other}`; try `simseq help`")),
        },
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
