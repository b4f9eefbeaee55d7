//! Seeded U001 case: the fixture tree's one entry. `main` reaches every
//! public fn in the tree, one of them only through a value reference,
//! except `Guarded::legacy_dump` in lib.rs, which nothing calls.

fn main() {
    let app = serve::App { registry: std::sync::Mutex::new(0), journal: std::sync::Mutex::new(0) };
    app.swap_then_log();
    app.log_then_swap();
    let mut event_loop = serve::event::Loop { app };
    event_loop.handle_readable();
    event_loop.flush_batch();
    let rows = [1u64, 2];
    let summary = Some(core::export::export_summary).map(|export| export(&rows));
    let scored = mlcore::kernels::score_rows(&[1.0]);
    println!("{summary:?} {scored:?}");
}
