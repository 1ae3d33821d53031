// Fixture: H1 — process-stream writes from library code.
fn noisy(x: u32) -> u32 {
    println!("placing {x}"); //~ print_stdout
    eprintln!("warning"); //~ print_stderr
    dbg!(x) //~ dbg_macro
}

// Test code may print.
#[cfg(test)]
mod tests {
    #[test]
    fn prints() {
        println!("test output is fine");
        eprintln!("so is this");
        dbg!(1);
    }
}
