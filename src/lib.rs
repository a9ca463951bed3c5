//! Facade crate re-exporting the full SWW system.
pub use sww_core as core;
pub use sww_energy as energy;
pub use sww_extras as extras;
pub use sww_genai as genai;
pub use sww_hash as hash;
pub use sww_html as html;
pub use sww_http2 as http2;
pub use sww_http3 as http3;
pub use sww_json as json;
pub use sww_obs as obs;
pub use sww_workload as workload;
