//! Regenerates the paper's fig11 output.
fn main() {
    println!("{}", capcheri_bench::fig11::report(1));
}
