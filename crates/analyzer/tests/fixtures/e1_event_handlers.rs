// Fixture: E1 — tick re-quantization inside event handlers.
impl Handlers {
    fn on_heartbeat(&mut self, at: u64) -> u64 {
        (at + self.cfg.tick - 1) / self.cfg.tick
    }

    fn handle_arrival(&self, at: u64) -> u64 {
        at.div_ceil(self.cfg.tick)
    }

    fn enqueue(&self, at: u64) -> u64 {
        (at + self.cfg.tick - 1) / self.cfg.tick
    }

    fn handle_drain(&self, span: u64, n: u64) -> u64 {
        span / n
    }
}
