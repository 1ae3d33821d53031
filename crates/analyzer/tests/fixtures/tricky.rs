// Fixture: constructs that must NOT trip the lexer-backed rules. Checked
// as crates/core library code, so C3, M1 and E1 all bind.

// Rule text inside ordinary strings, in an event handler.
fn on_strings() -> &'static str {
    "unsafe { poke() }; m.inc(\"requests\", &[]); at / self.tick"
}

// Rule text inside raw strings (with quotes and hashes).
fn handle_raw() -> &'static str {
    r#"static mut X: u32 = 0; m.inc("requests", &[]) says "at / tick" but it is just text"#
}

fn on_commented(at: u64) -> u64 {
    /* Block comments hide everything,
       even nested: /* unsafe { poke() } m.inc("requests", &[]) */ at / tick */
    at
}

// Test-gated items are not live code for M1 and E1. (C3 binds in test
// code too, so no `unsafe` here.)
#[cfg(test)]
mod tests {
    fn on_due(at: u64, tick: u64) -> u64 {
        at / tick
    }

    #[test]
    fn counts() {
        m.inc("requests", &[]);
    }
}

// cfg(not(test)) is LIVE code: this metric name must fire.
#[cfg(not(test))]
fn live_despite_cfg(m: &Registry) {
    m.inc("requests", &[]);
}
