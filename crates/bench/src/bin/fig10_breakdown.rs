//! Regenerates the paper's fig10 output.
fn main() {
    println!("{}", capcheri_bench::fig10::report(1));
}
