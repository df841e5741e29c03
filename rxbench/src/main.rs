fn main() -> std::process::ExitCode {
    rxbench::cli::main()
}
