//! Compressed-format differential bench. See `graphbi_bench::figs::compress`.
//! Exits nonzero when any compressed-path answer differs from raw, or when
//! format v3 misses its size or cold-time gates — CI treats all as failures.

fn main() {
    if !graphbi_bench::figs::compress::run() {
        eprintln!("compress bench: answer mismatch, or size or cold-time gate missed — failing");
        std::process::exit(1);
    }
}
