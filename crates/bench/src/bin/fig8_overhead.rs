//! Regenerates the paper's fig8 output.
fn main() {
    println!("{}", capcheri_bench::fig8::report(1));
}
