//! `ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>`:
//! one workload, one process, every metric by name on the last line of
//! stdout; non-zero exit when any correctness check failed.

fn main() -> std::process::ExitCode {
    imageproof_ledger::cli::main()
}
