//! The model registry: one [`ServingModel`] per requested (dataset,
//! model-kind) pair, trained at startup — plus [`SharedRegistry`], the
//! hot-swappable, generation-tagged handle the server actually reads
//! from. A background retrain builds a whole new [`Registry`] off to the
//! side and swaps it in atomically; readers always see exactly one
//! complete generation, never a half-trained mix.

use crate::codec::RowPlan;
use demodq::serving::{train_serving_model, ServingModel};
use demodq::StudyScale;
use datasets::DatasetId;
use mlcore::ModelKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A served model and the plan its `/v1/predict` rows decode through.
struct Entry {
    served: ServingModel,
    plan: RowPlan,
}

/// One immutable registry generation. Workers never mutate it, so it
/// needs no locks once built.
pub struct Registry {
    models: BTreeMap<(&'static str, &'static str), Entry>,
    /// Wall-clock training seconds per (dataset, model), measured at
    /// startup and exported by `/metrics` as
    /// `serve_startup_train_seconds`.
    train_seconds: BTreeMap<(&'static str, &'static str), f64>,
    scale_name: String,
    scale: StudyScale,
    datasets: Vec<DatasetId>,
    model_kinds: Vec<ModelKind>,
    seed: u64,
}

impl Registry {
    /// Trains one model per (dataset, model) pair, in parallel across std
    /// threads (each training job is independent).
    pub fn train(
        datasets: &[DatasetId],
        models: &[ModelKind],
        scale: &StudyScale,
        scale_name: &str,
        seed: u64,
    ) -> tabular::Result<Registry> {
        let pairs: Vec<(DatasetId, ModelKind)> = datasets
            .iter()
            .flat_map(|&d| models.iter().map(move |&m| (d, m)))
            .collect();
        let mut trained = Vec::with_capacity(pairs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(dataset, model)| {
                    scope.spawn(move || {
                        let start = std::time::Instant::now();
                        let result = train_serving_model(dataset, model, scale, seed);
                        (result, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            for handle in handles {
                trained.push(handle.join().unwrap_or_else(|_| {
                    (Err(tabular::TabularError::InvalidArgument(
                        "training thread panicked".to_string(),
                    )), 0.0)
                }));
            }
        });
        let mut registry = BTreeMap::new();
        let mut train_seconds = BTreeMap::new();
        for (result, seconds) in trained {
            let served = result?;
            let plan = RowPlan::compile(&served)?;
            let key = (served.dataset.name(), served.model.name());
            train_seconds.insert(key, seconds);
            registry.insert(key, Entry { served, plan });
        }
        Ok(Registry {
            models: registry,
            train_seconds,
            scale_name: scale_name.to_string(),
            scale: *scale,
            datasets: datasets.to_vec(),
            model_kinds: models.to_vec(),
            seed,
        })
    }

    /// Retrains the same roster (datasets × model kinds, same scale) at a
    /// different seed — the background half of a hot swap.
    pub fn retrain(&self, seed: u64) -> tabular::Result<Registry> {
        Registry::train(&self.datasets, &self.model_kinds, &self.scale, &self.scale_name, seed)
    }

    /// Startup training wall seconds per (dataset, model), in
    /// deterministic key order.
    pub fn startup_train_seconds(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.train_seconds.iter().map(|(&(d, m), &secs)| (d, m, secs))
    }

    /// Looks up a model by dataset and model names (paper naming).
    pub fn get(&self, dataset: &str, model: &str) -> Option<&ServingModel> {
        self.planned(DatasetId::parse(dataset)?, ModelKind::parse(model)?)
            .map(|(served, _)| served)
    }

    /// A model and its row plan, by dataset and model kind.
    pub fn planned(&self, dataset: DatasetId, model: ModelKind) -> Option<(&ServingModel, &RowPlan)> {
        self.models
            .get(&(dataset.name(), model.name()))
            .map(|entry| (&entry.served, &entry.plan))
    }

    /// Any model of the dataset (for endpoints that only need the
    /// training frame, like `/v1/clean`).
    pub fn any_for_dataset(&self, dataset: &str) -> Option<&ServingModel> {
        let name = DatasetId::parse(dataset)?.name();
        self.models
            .iter()
            .find(|((d, _), _)| *d == name)
            .map(|(_, entry)| &entry.served)
    }

    /// All (dataset, model) entries in deterministic order.
    pub fn entries(&self) -> impl Iterator<Item = &ServingModel> {
        self.models.values().map(|entry| &entry.served)
    }

    /// Number of trained models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The scale preset the registry was trained at.
    pub fn scale_name(&self) -> &str {
        &self.scale_name
    }

    /// The training seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The hot-swappable registry handle.
///
/// Readers take a [`SharedRegistry::snapshot`] — an `Arc` clone of the
/// current generation paired with its generation number, captured under
/// one brief mutex so the pair can never tear. The server snapshots once
/// per micro-batch, so every response in a batch reflects exactly one
/// generation; swaps replace the `Arc` and bump the generation
/// monotonically.
pub struct SharedRegistry {
    current: Mutex<(Arc<Registry>, u64)>,
    swaps: AtomicU64,
    retrain_inflight: AtomicBool,
}

impl SharedRegistry {
    /// Wraps the startup registry as generation 1.
    pub fn new(registry: Registry) -> SharedRegistry {
        SharedRegistry {
            current: Mutex::new((Arc::new(registry), 1)),
            swaps: AtomicU64::new(0),
            retrain_inflight: AtomicBool::new(false),
        }
    }

    /// The current generation and its registry, captured atomically.
    pub fn snapshot(&self) -> (Arc<Registry>, u64) {
        // A poisoned lock only means a panic elsewhere while holding it;
        // the (Arc, u64) pair itself is always internally consistent.
        let guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&guard.0), guard.1)
    }

    /// The current generation number.
    // lint:allow(U001, hot_swap_under_predict_load_keeps_generations_coherent checks the swaps)
    pub fn generation(&self) -> u64 {
        self.current.lock().unwrap_or_else(PoisonError::into_inner).1
    }

    /// Completed swaps so far (generation = swaps + 1).
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Atomically installs `next` as the new current generation and
    /// returns its generation number. In-flight readers keep scoring
    /// against the snapshot they already hold.
    pub fn swap(&self, next: Arc<Registry>) -> u64 {
        let mut guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0 = next;
        guard.1 += 1;
        self.swaps.fetch_add(1, Ordering::SeqCst);
        guard.1
    }

    /// Whether a background retrain is currently running.
    pub fn retrain_in_flight(&self) -> bool {
        self.retrain_inflight.load(Ordering::SeqCst)
    }

    /// Kicks off a background retrain of the current roster at `seed`;
    /// the new registry is swapped in when training finishes. Only one
    /// retrain may be in flight at a time — a second request is refused
    /// (the caller maps that to 409).
    pub fn begin_retrain(self: &Arc<Self>, seed: u64) -> Result<(), &'static str> {
        if self
            .retrain_inflight
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err("a retrain is already in flight");
        }
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("demodq-retrain".to_string())
            .spawn(move || {
                let (base, _) = shared.snapshot();
                match base.retrain(seed) {
                    Ok(next) => {
                        let generation = shared.swap(Arc::new(next));
                        eprintln!("serve: hot-swapped registry generation {generation} (seed {seed})");
                    }
                    Err(e) => eprintln!("serve: background retrain failed: {e}"),
                }
                shared.retrain_inflight.store(false, Ordering::SeqCst);
            });
        if spawned.is_err() {
            self.retrain_inflight.store(false, Ordering::SeqCst);
            return Err("could not spawn the retrain thread");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_and_resolves_model_names() {
        let registry = Registry::train(
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            "smoke",
            11,
        )
        .unwrap();
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        // Models resolve by ModelKind::name only; aliases do not.
        assert!(registry.get("german", "log-reg").is_some());
        assert!(registry.get("german", "logreg").is_none());
        assert!(registry.get("german", "knn").is_none());
        assert!(registry.get("nope", "log-reg").is_none());
        assert!(registry.any_for_dataset("german").is_some());
        assert_eq!(registry.scale_name(), "smoke");
        assert_eq!(registry.seed(), 11);
        let timings: Vec<_> = registry.startup_train_seconds().collect();
        assert_eq!(timings.len(), 1);
        let (dataset, model, seconds) = timings[0];
        assert_eq!((dataset, model), ("german", "log-reg"));
        assert!(seconds > 0.0);
    }

    #[test]
    fn shared_registry_swaps_atomically_and_monotonically() {
        let a = Registry::train(
            &[DatasetId::German],
            &[ModelKind::LogReg],
            &StudyScale::smoke(),
            "smoke",
            11,
        )
        .unwrap();
        let b = Arc::new(a.retrain(12).unwrap());
        assert_eq!(b.seed(), 12);
        assert_eq!(b.len(), 1, "retrain reuses the roster");

        let shared = Arc::new(SharedRegistry::new(a));
        let (snap, generation) = shared.snapshot();
        assert_eq!(generation, 1);
        assert_eq!(snap.seed(), 11);
        assert_eq!(shared.swaps(), 0);

        assert_eq!(shared.swap(Arc::clone(&b)), 2);
        // The old snapshot keeps working after the swap (no torn reads).
        assert_eq!(snap.seed(), 11);
        let (snap2, generation2) = shared.snapshot();
        assert_eq!((snap2.seed(), generation2), (12, 2));
        assert_eq!(shared.swaps(), 1);
        assert_eq!(shared.generation(), 2);
        assert!(!shared.retrain_in_flight());
    }
}
