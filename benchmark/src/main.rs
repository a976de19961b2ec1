//! The benchmark binary — and, when the process backend spawns it with
//! `--connect …`, the shard worker: exactly what the repository's
//! `onesa-shard-worker` does (`onesa_core::net::worker_main`), so the
//! benchmark package builds the only executable it needs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--connect") {
        if let Err(msg) = onesa_core::net::worker_main(args.into_iter()) {
            eprintln!("onesa-benchmark (shard worker): {msg}");
            std::process::exit(2);
        }
        return;
    }
    // Before any thread exists: keep the process backend's socket files
    // inside the checkout.
    if let Err(e) = onesa_benchmark::host::confine_temp_dir() {
        eprintln!("onesa-benchmark: cannot create the output directory: {e}");
        std::process::exit(2);
    }
    std::process::exit(onesa_benchmark::main_with(&args));
}
