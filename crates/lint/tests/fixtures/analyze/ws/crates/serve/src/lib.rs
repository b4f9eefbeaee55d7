//! Seeded L001 violation: `registry` and `journal` are acquired in
//! both orders by two different functions — a classic AB/BA deadlock.

pub mod backoff;
pub mod event;

pub struct App {
    pub registry: std::sync::Mutex<u64>,
    pub journal: std::sync::Mutex<u64>,
}

pub struct Guarded;

impl App {
    pub fn predict_batch(&self, rows: &[f64]) -> Vec<f64> {
        rows.to_vec()
    }

    pub fn swap_then_log(&self) {
        let r = self.registry.lock();
        let j = self.journal.lock();
        drop((r, j));
    }

    pub fn log_then_swap(&self) {
        let j = self.journal.lock();
        let r = self.registry.lock();
        drop((j, r));
    }
}

impl Guarded {
    /// Seeded U001 violation: public, and no `main` reaches it.
    pub fn legacy_dump(&self) -> u64 {
        0
    }
}
