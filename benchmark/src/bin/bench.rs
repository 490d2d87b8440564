//! `bench`: the workloads, the end-to-end metrics and the
//! driver-boundary trace. See `benchmark::cli` for the command line.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    benchmark::cli::main(&args).into()
}
