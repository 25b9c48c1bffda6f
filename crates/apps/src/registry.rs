//! The benchmark registry: every app with its standard workload, behind one
//! uniform interface the experiment harnesses iterate over.

use ct_ir::instr::ProcId;
use ct_ir::program::Program;
use ct_mote::cost::CostModel;
use ct_mote::interp::Mote;

/// One benchmark application.
#[derive(Clone)]
pub struct App {
    /// Short name (stable across experiments and reports).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// NLC source.
    pub source: &'static str,
    /// The procedure whose profile the experiments estimate.
    pub target_proc: &'static str,
    /// Device/workload setup.
    pub configure: fn(&mut Mote),
    /// Optional pre-invocation hook (e.g. packet delivery), given the call
    /// index.
    pub per_call: Option<fn(&mut Mote, usize)>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App").field("name", &self.name).finish()
    }
}

impl App {
    /// Compiles the app's source.
    ///
    /// # Panics
    ///
    /// Panics if a bundled source fails to compile (a bug in this crate).
    pub fn compile(&self) -> Program {
        ct_ir::compile_source(self.source)
            .unwrap_or_else(|e| panic!("bundled app `{}` must compile: {e}", self.name))
    }

    /// Boots a configured mote running this app.
    pub fn boot(&self, cost_model: Box<dyn CostModel>) -> Mote {
        let mut mote = Mote::new(self.compile(), cost_model);
        (self.configure)(&mut mote);
        mote
    }

    /// The target procedure's id within `program`.
    ///
    /// # Panics
    ///
    /// Panics if the target procedure is missing (a bug in this crate).
    pub fn target_id(&self, program: &Program) -> ProcId {
        program
            .proc_id(self.target_proc)
            .unwrap_or_else(|| panic!("app `{}` has procedure `{}`", self.name, self.target_proc))
    }
}

/// All benchmark apps, in the canonical report order.
pub fn all_apps() -> Vec<App> {
    vec![
        App {
            name: "blink",
            description: "timer-driven LED cascade (branch probs 1/2, 1/4, 1/8)",
            source: crate::blink::SOURCE,
            target_proc: crate::blink::TARGET_PROC,
            configure: crate::blink::configure,
            per_call: None,
        },
        App {
            name: "sense",
            description: "ADC threshold alarm over a uniform field",
            source: crate::sense::SOURCE,
            target_proc: crate::sense::TARGET_PROC,
            configure: crate::sense::configure,
            per_call: None,
        },
        App {
            name: "oscilloscope",
            description: "buffered sampling with radio flush every 16 samples",
            source: crate::oscilloscope::SOURCE,
            target_proc: crate::oscilloscope::TARGET_PROC,
            configure: crate::oscilloscope::configure,
            per_call: None,
        },
        App {
            name: "surge",
            description: "multi-hop packet routing with lossy forwarding",
            source: crate::surge::SOURCE,
            target_proc: crate::surge::TARGET_PROC,
            configure: crate::surge::configure,
            per_call: Some(crate::surge::deliver_batch),
        },
        App {
            name: "event_detect",
            description: "smoothed hysteresis alarm over a bursty field",
            source: crate::event_detect::SOURCE,
            target_proc: crate::event_detect::TARGET_PROC,
            configure: crate::event_detect::configure,
            per_call: None,
        },
        App {
            name: "crc",
            description: "CRC-16 over 8-byte packets (64 data-dependent branches)",
            source: crate::crc::SOURCE,
            target_proc: crate::crc::TARGET_PROC,
            configure: crate::crc::configure,
            per_call: None,
        },
        App {
            name: "fir",
            description: "8-tap FIR filter with threshold alarm",
            source: crate::fir::SOURCE,
            target_proc: crate::fir::TARGET_PROC,
            configure: crate::fir::configure,
            per_call: None,
        },
        App {
            name: "sort",
            description: "bubble sort window (non-homogeneous swap branch)",
            source: crate::sort::SOURCE,
            target_proc: crate::sort::TARGET_PROC,
            configure: crate::sort::configure,
            per_call: None,
        },
    ]
}

/// Looks an app up by name.
pub fn app_by_name(name: &str) -> Option<App> {
    all_apps().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_mote::cost::AvrCost;
    use ct_mote::trace::NullProfiler;

    #[test]
    fn all_apps_compile_and_expose_target() {
        for app in all_apps() {
            let p = app.compile();
            let pid = app.target_id(&p);
            assert!(p.proc(pid).cfg.validate().is_ok(), "{}", app.name);
        }
    }

    #[test]
    fn all_targets_are_structured_single_exit() {
        for app in all_apps() {
            let p = app.compile();
            let pid = app.target_id(&p);
            let cfg = &p.proc(pid).cfg;
            assert!(ct_cfg::loops::is_reducible(cfg), "{}", app.name);
            assert_eq!(cfg.exit_blocks().len(), 1, "{}", app.name);
        }
    }

    #[test]
    fn all_apps_run_200_invocations_without_traps() {
        for app in all_apps() {
            let mut mote = app.boot(Box::new(AvrCost));
            let pid = app.target_id(mote.program());
            for i in 0..200 {
                if let Some(hook) = app.per_call {
                    hook(&mut mote, i);
                }
                mote.call(pid, &[], &mut NullProfiler)
                    .unwrap_or_else(|e| panic!("{} trapped: {e}", app.name));
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let apps = all_apps();
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), apps.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("sense").is_some());
        assert!(app_by_name("missing").is_none());
    }
}
