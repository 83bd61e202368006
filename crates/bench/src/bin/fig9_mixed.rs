//! Regenerates the paper's fig9 output.
fn main() {
    println!("{}", capcheri_bench::fig9::report(1));
}
