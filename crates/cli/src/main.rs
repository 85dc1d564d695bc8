//! `qbss` — command-line front end for the QBSS library.
//!
//! Subcommands:
//!
//! * `qbss generate` — write a random instance (JSON) to stdout/file;
//! * `qbss run` — run one algorithm on an instance file, print the
//!   decisions, energy and ratios;
//! * `qbss stream` — feed JSONL arrival events (file or stdin) through
//!   the incremental streaming engine and print the evaluated summary;
//! * `qbss compare` — run every applicable algorithm on an instance and
//!   print a comparison table;
//! * `qbss sweep` — run a declarative instance × algorithm × α grid on
//!   the sharded batch engine and print deterministic aggregates;
//! * `qbss serve` — a long-lived std-only HTTP server: Prometheus
//!   `/metrics`, health probes, a `/tracez` span ring, and
//!   `POST /evaluate` / `POST /sweep` evaluation endpoints, with
//!   cost-budgeted admission control and request deadlines;
//! * `qbss loadgen` — a seeded open-loop load generator (Poisson
//!   arrivals, optional adversarial burst trains) that drives a qbss
//!   server over real TCP and emits a canonical JSON report;
//! * `qbss bounds` — print the paper's Table 1 at a given α;
//! * `qbss rho` — print the §4.2 ρ-comparison table;
//! * `qbss trace summarize` — digest a `--trace` JSONL file into a
//!   per-phase timing tree (text or canonical JSON);
//! * `qbss trace report` — render a trace as a self-contained HTML
//!   report (phase tree, span waterfall, metrics tables);
//! * `qbss perf|quality|complexity record|compare|gate` — the three
//!   observatories behind one protocol: pinned scenarios recorded into
//!   schema-tagged baselines, diffed, and gated (exit 3 on regression;
//!   `QBSS_BLESS=1` re-blesses the baseline instead). `perf` times warm
//!   repeats under a noise-aware rule with `--profile` call-path blame;
//!   `quality` locks per-group competitive ratios and bound headroom
//!   exactly; `complexity` locks deterministic op counts over n-grids
//!   exactly, with a +0.05 tolerance on fitted exponents;
//! * `qbss explain` — factor one cell's energy ratio into
//!   query × split × sched losses, print per-job decision rows with the
//!   blame job, optionally render an ALG-vs-OPT HTML timeline;
//! * `qbss prof record|diff|flame` — fold span traces or live seeded
//!   scenario runs into canonical call-path profiles
//!   (`a;b;c self_us count` lines), diff two folded profiles, render
//!   self-contained flamegraph HTML.
//!
//! Observability: `generate`/`run`/`compare`/`sweep` accept
//! `--trace FILE` (spans + events to a JSONL file) and honour the
//! `QBSS_LOG` environment filter (`level` or `target=level`,
//! comma-separated); a malformed spec is bad input (exit 2).
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! workspace dependency-free; flags are uniform across subcommands
//! (`--alg`, `--alpha`, `--m`, `--seed`, `--format`). The pre-redesign
//! spellings (`--algorithm`, `--machines`) have been removed after
//! their deprecation period: they are rejected as unknown flags
//! (exit 2) like any other typo.
//!
//! Exit codes are part of the contract (scripts rely on them):
//! `0` success, `1` algorithm failure on valid input, `2` bad input
//! (flags or instance data), `3` file-system failure or a gate
//! regression. A `qbss serve` process that receives SIGTERM or ctrl-c
//! drains in-flight requests and exits `0` — a signalled drain is a
//! clean shutdown, not a failure.

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod commands;
mod loadgen;
mod serve;

use std::process::ExitCode;

use commands::CliError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "run" => commands::run(rest),
        "stream" => commands::stream(rest),
        "compare" => commands::compare(rest),
        "sweep" => commands::sweep(rest),
        "serve" => commands::serve_cmd(rest),
        "loadgen" => commands::loadgen(rest),
        "bounds" => commands::bounds(rest),
        "rho" => commands::rho(rest),
        "trace" => commands::trace(rest),
        "perf" | "quality" | "complexity" => commands::observatory(cmd, rest),
        "explain" => commands::explain(rest),
        "prof" => commands::prof(rest),
        "version" | "--version" | "-V" => commands::version(),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::Input(format!("unknown subcommand `{other}`\n{}", commands::USAGE))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
