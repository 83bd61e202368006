//! Regenerates the paper's fig7 output.
fn main() {
    println!("{}", capcheri_bench::fig7::report(1));
}
