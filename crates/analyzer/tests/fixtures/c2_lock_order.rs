//! C2 fixture: a lock acquired while another guard is live.
//! Checked as decision-crate library code; it does not need to compile.

fn fires_nested(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
}

fn fires_temporary_under_guard(&self) {
    let b = self.beta.lock();
    self.slots[i].lock().push(1);
}

fn clean_dropped(&self) {
    let a = self.alpha.lock();
    drop(a);
    let b = self.beta.lock();
}

fn clean_scoped(&self) {
    {
        let b = self.beta.lock();
    }
    let a = self.alpha.lock();
}

fn suppressed(&self) {
    let g = self.gamma1.lock();
    // knots-allow: C2 -- fixture: a nested acquisition can be pragma-suppressed at its anchor
    let h = self.gamma2.lock();
}
