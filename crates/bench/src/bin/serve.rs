//! Service-layer benchmark. See `graphbi_bench::figs::serve`.
//! Exits nonzero when any served answer differs from the in-process
//! session answer — CI treats that as a failure.
fn main() {
    if !graphbi_bench::figs::serve::run() {
        eprintln!("serve bench: correctness gate failed");
        std::process::exit(1);
    }
}
