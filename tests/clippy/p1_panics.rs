// Fixture: P1 — panicking calls in non-test library code.
fn bad(opt: Option<u32>, res: Result<u32, ()>) -> u32 {
    let a = opt.unwrap(); //~ unwrap_used
    let b = res.expect("always ok"); //~ expect_used
    if a > b {
        panic!("impossible"); //~ panic
    }
    todo!() //~ todo
}

// The `_or` family must NOT fire.
fn fine(opt: Option<u32>) -> u32 {
    opt.unwrap_or(0) + opt.unwrap_or_default() + opt.unwrap_or_else(|| 1)
}

fn unfinished() -> u32 {
    unimplemented!() //~ unimplemented
}

// cfg(not(test)) is LIVE code: this unwrap must fire.
#[cfg(not(test))]
fn live_despite_cfg(o: Option<u32>) -> u32 {
    o.unwrap() //~ unwrap_used
}

// Test code may panic.
#[cfg(test)]
mod tests {
    #[test]
    fn asserts_hard() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), v.expect("set"));
        if v.is_none() {
            panic!("unset");
        }
    }
}
