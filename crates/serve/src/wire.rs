//! The versioned wire schema.
//!
//! Requests and responses are explicit, versioned DTOs — the daemon's
//! compatibility contract — rather than serialized internal types. A
//! [`ServeRequestV1`] carries exactly the fields of
//! [`PipelineConfig::builder`] so the CLI and the wire API converge on
//! one builder-validated config type; responses embed the engine's own
//! serializable outcomes ([`EngineOutcome`] / [`SweepOutcome`]) in
//! *masked* form, so goldens, the CLI, and the wire layer all share one
//! schema and one determinism rule.
//!
//! Error taxonomy: transport-level problems (unreadable HTTP, invalid
//! JSON, schema violations) are `400`; requests that parse but name an
//! impossible computation map each [`XtraceError`] category onto a
//! stable machine-readable code at `422` (client's fault) or `500`
//! (server's fault) — see [`error_code`].

use serde::{Deserialize, Serialize, Value};
use xtrace_core::{
    EngineOutcome, FormSet, PipelineConfig, PredictionRow, SweepOutcome, XtraceError,
};
use xtrace_psins::Prediction;

/// The wire API version this module speaks.
pub const API_VERSION: u32 = 1;

/// A `POST /v1/predict` or `POST /v1/sweep` request body.
///
/// Field-for-field the surface of [`PipelineConfig::builder`]: `app`,
/// `machine`, `training`, and `target` are required; everything else is
/// optional with the builder's defaults. Unknown fields are rejected so
/// a typo fails loudly instead of silently running the default.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct ServeRequestV1 {
    /// Wire schema version; omit or set to `1`.
    pub api_version: u32,
    /// Application name (`xtrace apps` lists them).
    pub app: String,
    /// Machine profile name (`xtrace machines` lists them).
    pub machine: String,
    /// Training core counts to collect at.
    pub training: Vec<u32>,
    /// The core count to extrapolate to.
    pub target: u32,
    /// Additional sweep targets (`/v1/sweep`; must start with `target`).
    pub targets: Option<Vec<u32>>,
    /// Problem-size scale (`tiny`/`small`/...), app-defined default.
    pub scale: Option<String>,
    /// Canonical form set: `"paper"` or `"extended"`.
    pub forms: Option<String>,
    /// Run the collected-at-target validation stage (expensive).
    pub validate: Option<bool>,
    /// Use the fast tracer sampling preset.
    pub fast_tracer: Option<bool>,
    /// Simulated ranks per training count.
    pub ranks_per_count: Option<u32>,
}

impl ServeRequestV1 {
    /// A request with the required fields set and every option defaulted.
    pub fn new(
        app: impl Into<String>,
        machine: impl Into<String>,
        training: Vec<u32>,
        target: u32,
    ) -> ServeRequestV1 {
        ServeRequestV1 {
            api_version: API_VERSION,
            app: app.into(),
            machine: machine.into(),
            training,
            target,
            targets: None,
            scale: None,
            forms: None,
            validate: None,
            fast_tracer: None,
            ranks_per_count: None,
        }
    }

    /// Lowers the request onto the builder-validated [`PipelineConfig`].
    ///
    /// Option semantics mirror the CLI: unset fields take the builder's
    /// defaults, and full validation (known app/machine, training below
    /// target, ...) happens when the pipeline resolves the config.
    pub fn to_config(&self) -> Result<PipelineConfig, XtraceError> {
        let mut b = PipelineConfig::builder(
            self.app.clone(),
            self.machine.clone(),
            self.training.clone(),
            self.target,
        );
        if let Some(scale) = &self.scale {
            b = b.scale(scale.clone());
        }
        if let Some(forms) = &self.forms {
            b = b.forms(FormSet::parse(forms)?);
        }
        if let Some(validate) = self.validate {
            b = b.validate(validate);
        }
        if let Some(fast) = self.fast_tracer {
            b = b.fast_tracer(fast);
        }
        if let Some(n) = self.ranks_per_count {
            b = b.ranks_per_count(n);
        }
        if let Some(targets) = &self.targets {
            b = b.targets(targets.clone());
        }
        Ok(b.build())
    }
}

/// Every field a [`ServeRequestV1`] may carry.
const REQUEST_FIELDS: [&str; 11] = [
    "api_version",
    "app",
    "machine",
    "training",
    "target",
    "targets",
    "scale",
    "forms",
    "validate",
    "fast_tracer",
    "ranks_per_count",
];

// Hand-written: optional fields may be *absent* from the wire object,
// and unknown fields must be rejected — neither of which the derive
// (which requires every field present and ignores the rest) expresses.
impl Deserialize for ServeRequestV1 {
    fn from_value(v: &Value) -> Result<ServeRequestV1, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::msg(format!("request must be a JSON object, got {}", v.kind()))
        })?;
        for (name, _) in obj {
            if !REQUEST_FIELDS.contains(&name.as_str()) {
                return Err(serde::Error::msg(format!("unknown request field {name:?}")));
            }
        }
        let api_version = serde::field::<Option<u32>>(v, "api_version")?.unwrap_or(API_VERSION);
        if api_version != API_VERSION {
            return Err(serde::Error::msg(format!(
                "unsupported api_version {api_version} (this server speaks {API_VERSION})"
            )));
        }
        let require = |name: &str| {
            if v.get(name).is_none() {
                Err(serde::Error::msg(format!(
                    "missing required field {name:?}"
                )))
            } else {
                Ok(())
            }
        };
        require("app")?;
        require("machine")?;
        require("training")?;
        require("target")?;
        Ok(ServeRequestV1 {
            api_version,
            app: serde::field(v, "app")?,
            machine: serde::field(v, "machine")?,
            training: serde::field(v, "training")?,
            target: serde::field(v, "target")?,
            targets: serde::field(v, "targets")?,
            scale: serde::field(v, "scale")?,
            forms: serde::field(v, "forms")?,
            validate: serde::field(v, "validate")?,
            fast_tracer: serde::field(v, "fast_tracer")?,
            ranks_per_count: serde::field(v, "ranks_per_count")?,
        })
    }
}

/// Compact summary of the fit stage's [`FitDiagnostics`]
/// (per-form win counts rather than the full per-element dump).
///
/// [`FitDiagnostics`]: xtrace_obs::FitDiagnostics
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitSummary {
    /// How many feature elements each canonical form won.
    pub form_wins: std::collections::BTreeMap<String, u64>,
    /// Feature elements fitted in total.
    pub elements: u64,
    /// target_x / max(training_xs): how far beyond the training range
    /// the synthesis reached.
    pub extrapolation_distance: f64,
}

impl FitSummary {
    fn from_diagnostics(d: &xtrace_obs::FitDiagnostics) -> FitSummary {
        FitSummary {
            form_wins: d.form_wins.clone(),
            elements: d.elements.len() as u64,
            extrapolation_distance: d.extrapolation_distance(),
        }
    }
}

/// A `POST /v1/predict` success body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ServeResponseV1 {
    /// Wire schema version (always `1`).
    pub api_version: u32,
    /// The config hash the engine coalesced and cached under.
    pub config_hash: String,
    /// The extrapolated core count.
    pub target: u32,
    /// The runtime prediction (the payload most clients want).
    pub prediction: Prediction,
    /// Fit-stage summary, when the pipeline recorded diagnostics.
    pub fit: Option<FitSummary>,
    /// `true` when this request joined another request's in-flight run.
    pub coalesced: bool,
    /// The engine outcome in masked (deterministic) form — the same
    /// schema golden tests pin. The per-element fit-diagnostics dump is
    /// elided (`fit` above summarizes it); everything else — the
    /// extrapolated trace, masked metrics, masked journal — rides along.
    pub telemetry: EngineOutcome,
}

impl ServeResponseV1 {
    /// Builds the wire response from an engine outcome, masking the
    /// embedded telemetry and summarizing the fit diagnostics.
    pub fn from_outcome(outcome: &EngineOutcome) -> ServeResponseV1 {
        let mut telemetry = outcome.masked();
        // The full per-element dump is by far the largest part of a
        // report (hundreds of KB); the wire carries the summary instead,
        // and `xtrace report` serves anyone who needs every residual.
        telemetry.report.fit_diagnostics = None;
        ServeResponseV1 {
            api_version: API_VERSION,
            config_hash: outcome.report.config_hash.clone(),
            target: outcome.report.extrapolated.nranks,
            prediction: outcome.report.prediction.clone(),
            fit: outcome
                .report
                .fit_diagnostics
                .as_ref()
                .map(FitSummary::from_diagnostics),
            coalesced: outcome.coalesced,
            telemetry,
        }
    }
}

/// A `POST /v1/sweep` success body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ServeSweepResponseV1 {
    /// Wire schema version (always `1`).
    pub api_version: u32,
    /// Hash of the shared collect+fit prefix.
    pub prefix_hash: String,
    /// The swept core counts, in request order.
    pub targets: Vec<u32>,
    /// One prediction row per target — the same rows `xtrace pipeline
    /// --targets --out` writes.
    pub rows: Vec<PredictionRow>,
    /// `true` when this request joined another request's in-flight run.
    pub coalesced: bool,
    /// The sweep outcome in masked (deterministic) form, with the
    /// per-target fit-diagnostics dumps elided as in [`ServeResponseV1`].
    pub telemetry: SweepOutcome,
}

impl ServeSweepResponseV1 {
    /// Builds the wire response from a sweep outcome, masking the
    /// embedded telemetry and eliding the per-element diagnostics.
    pub fn from_outcome(outcome: &SweepOutcome) -> ServeSweepResponseV1 {
        let mut telemetry = outcome.masked();
        for report in &mut telemetry.sweep.reports {
            report.fit_diagnostics = None;
        }
        ServeSweepResponseV1 {
            api_version: API_VERSION,
            prefix_hash: outcome.sweep.prefix_hash.clone(),
            targets: outcome.sweep.targets.clone(),
            rows: outcome.sweep.prediction_rows(),
            coalesced: outcome.coalesced,
            telemetry,
        }
    }
}

/// An error body: a stable machine-readable `error` code plus a
/// human-readable `message`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeErrorV1 {
    /// Stable code (`invalid_json`, `invalid_config`, `queue_full`, ...).
    pub error: String,
    /// Human-readable detail.
    pub message: String,
}

impl ServeErrorV1 {
    /// Builds an error body.
    pub fn new(error: &str, message: impl Into<String>) -> ServeErrorV1 {
        ServeErrorV1 {
            error: error.into(),
            message: message.into(),
        }
    }

    /// Serializes the body.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{\"error\":\"internal\"}".into())
    }
}

/// Maps a model-layer failure onto `(HTTP status, stable error code)`.
///
/// | [`XtraceError`] category | status | code |
/// |---|---|---|
/// | `Usage` | 422 | `invalid_config` |
/// | `Extrapolation` | 422 | `extrapolation_failed` |
/// | `Machine` | 422 | `machine_invalid` |
/// | `Predict` | 422 | `predict_failed` |
/// | `Model` | 422 | `model_failed` |
/// | `Io` | 500 | `io_error` |
/// | `Store` | 500 | `store_error` |
pub fn error_code(e: &XtraceError) -> (u16, &'static str) {
    match e {
        XtraceError::Usage(_) => (422, "invalid_config"),
        XtraceError::Extrapolation(_) => (422, "extrapolation_failed"),
        XtraceError::Machine(_) => (422, "machine_invalid"),
        XtraceError::Predict(_) => (422, "predict_failed"),
        XtraceError::Model(_) => (422, "model_failed"),
        XtraceError::Io(_) => (500, "io_error"),
        XtraceError::Store(_) => (500, "store_error"),
        // XtraceError is #[non_exhaustive]; future categories default to
        // the server-fault side so clients never mis-blame themselves.
        _ => (500, "internal_error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req: ServeRequestV1 = serde_json::from_str(
            r#"{"app":"stencil3d","machine":"opteron","training":[2,4,8],"target":32}"#,
        )
        .unwrap();
        assert_eq!(req.api_version, API_VERSION);
        assert_eq!(req.app, "stencil3d");
        assert_eq!(req.training, vec![2, 4, 8]);
        assert_eq!(req.target, 32);
        assert_eq!(req.scale, None);
        let cfg = req.to_config().unwrap();
        assert_eq!(cfg.target, 32);
    }

    #[test]
    fn full_request_roundtrips_through_its_own_serialization() {
        let mut req = ServeRequestV1::new("specfem3d", "cray-xt5", vec![6, 24, 96], 384);
        req.scale = Some("tiny".into());
        req.forms = Some("extended".into());
        req.validate = Some(false);
        req.fast_tracer = Some(true);
        req.ranks_per_count = Some(4);
        req.targets = Some(vec![384, 768]);
        let text = serde_json::to_string(&req).unwrap();
        let back: ServeRequestV1 = serde_json::from_str(&text).unwrap();
        assert_eq!(back, req);
        let cfg = back.to_config().unwrap();
        assert_eq!(cfg.effective_targets(), vec![384, 768]);
        assert_eq!(cfg.forms, FormSet::Extended);
    }

    #[test]
    fn missing_required_field_is_named() {
        let err = serde_json::from_str::<ServeRequestV1>(
            r#"{"app":"stencil3d","machine":"opteron","training":[2,4]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("target"), "got: {err}");
    }

    #[test]
    fn unknown_field_is_rejected() {
        let err = serde_json::from_str::<ServeRequestV1>(
            r#"{"app":"a","machine":"m","training":[2,4],"target":8,"traget":9}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("traget"), "got: {err}");
    }

    #[test]
    fn wrong_api_version_is_rejected() {
        let err = serde_json::from_str::<ServeRequestV1>(
            r#"{"api_version":2,"app":"a","machine":"m","training":[2,4],"target":8}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("api_version 2"), "got: {err}");
    }

    #[test]
    fn bad_forms_label_maps_to_invalid_config() {
        let mut req = ServeRequestV1::new("stencil3d", "opteron", vec![2, 4], 16);
        req.forms = Some("imaginary".into());
        let err = req.to_config().unwrap_err();
        assert_eq!(error_code(&err), (422, "invalid_config"));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(
            error_code(&XtraceError::Usage("x".into())),
            (422, "invalid_config")
        );
        assert_eq!(
            error_code(&XtraceError::Store("x".into())),
            (500, "store_error")
        );
        assert_eq!(
            error_code(&XtraceError::Model("x".into())),
            (422, "model_failed")
        );
    }
}
