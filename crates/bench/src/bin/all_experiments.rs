//! Regenerates every table and figure of the evaluation, in order.
fn main() {
    println!("{}", capcheri_bench::table1::report());
    println!("{}", capcheri_bench::table2::report());
    println!("{}", capcheri_bench::table3::report());
    println!("{}", capcheri_bench::fig7::report(1));
    println!("{}", capcheri_bench::fig8::report(1));
    println!("{}", capcheri_bench::fig9::report(1));
    println!("{}", capcheri_bench::fig10::report(1));
    println!("{}", capcheri_bench::fig11::report(1));
    println!("{}", capcheri_bench::fig12::report(1));
}
