//! `graf-exp` — runs the paper's experiments; see [`graf_bench::exp`].

fn main() -> std::process::ExitCode {
    graf_bench::exp::cli(std::env::args().skip(1))
}
