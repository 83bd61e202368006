//! Regenerates the paper's fig12 output.
fn main() {
    println!("{}", capcheri_bench::fig12::report(1));
}
