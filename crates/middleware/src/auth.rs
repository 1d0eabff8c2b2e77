//! Key-based authentication and role ACLs.
//!
//! The token table (`token → principal`) is an SWMR hash map from
//! dego-core: every connection thread resolves `AUTH` tokens through
//! the lock-free reader; the unique writer is mutex-serialized behind
//! the runtime admin API (add/revoke tokens). The ambient policy (what
//! an unauthenticated session may do) lives in an [`rcu_cell`]: a
//! reload copy-swaps the whole policy, and every session observes the
//! new version on its next request — no locks on the request path.
//!
//! ACL model: `Control` verbs are always allowed, `Read` verbs need
//! [`Role::ReadOnly`] or better, `Write` verbs need [`Role::ReadWrite`]
//! or better.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{
    split, Admission, Layer, LayerKind, LayerRule, Request, Response, Session, Split,
};
use crate::protocol::{Command, CommandClass, Reply};
use dego_core::rcu::{rcu_cell, RcuReader, RcuWriter};
use dego_core::swmr_hash::{swmr_hash_map, SwmrHashReader, SwmrHashWriter};
use std::sync::{Arc, Mutex};

/// What a session is allowed to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// No access at all (useful as an anon role to force `AUTH`).
    None,
    /// Read-class verbs only.
    ReadOnly,
    /// Read- and write-class verbs.
    ReadWrite,
}

impl Role {
    /// Whether this role may run a command of `class`.
    pub fn allows(self, class: CommandClass) -> bool {
        match class {
            CommandClass::Control => true,
            CommandClass::Read => self >= Role::ReadOnly,
            CommandClass::Write => self >= Role::ReadWrite,
        }
    }

    /// Parse a config name (`none`, `readonly`, `readwrite`).
    pub fn parse(name: &str) -> Result<Role, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "none" | "deny" => Ok(Role::None),
            "readonly" | "read" | "ro" => Ok(Role::ReadOnly),
            "readwrite" | "write" | "rw" => Ok(Role::ReadWrite),
            other => Err(format!("unknown role {other:?}")),
        }
    }

    /// The lowercase config/display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::None => "none",
            Role::ReadOnly => "readonly",
            Role::ReadWrite => "readwrite",
        }
    }
}

/// An authenticated identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Principal {
    /// Display name (never the token).
    pub name: Arc<str>,
    /// Granted role.
    pub role: Role,
}

/// One configured token.
#[derive(Clone, Debug)]
pub struct TokenSpec {
    /// Principal name the token authenticates as.
    pub name: String,
    /// The secret presented via `AUTH`.
    pub token: String,
    /// Role granted on login.
    pub role: Role,
}

/// Auth layer configuration.
#[derive(Clone, Debug)]
pub struct AuthConfig {
    /// Tokens loaded at boot.
    pub tokens: Vec<TokenSpec>,
    /// Role of sessions that never ran `AUTH`.
    pub anon_role: Role,
}

impl Default for AuthConfig {
    /// Open by default: anonymous sessions keep full access until a
    /// deployment narrows the policy (no token, no lock-out surprises).
    fn default() -> Self {
        AuthConfig {
            tokens: Vec::new(),
            anon_role: Role::ReadWrite,
        }
    }
}

/// RCU-published ambient policy.
#[derive(Clone, Debug)]
struct AclPolicy {
    anon_role: Role,
}

/// Shared auth state: lock-free readers + mutex-serialized admin
/// writers.
pub struct AuthState {
    tokens: SwmrHashReader<String, Principal>,
    policy: RcuReader<AclPolicy>,
    admin: Mutex<AuthAdmin>,
}

struct AuthAdmin {
    tokens: SwmrHashWriter<String, Principal>,
    policy: RcuWriter<AclPolicy>,
}

impl AuthState {
    /// Add or replace a token at runtime.
    pub(crate) fn set_token(&self, name: &str, token: &str, role: Role) {
        let mut admin = self.admin.lock().expect("auth admin");
        admin.tokens.insert(
            token.to_string(),
            Principal {
                name: Arc::from(name),
                role,
            },
        );
    }

    /// RCU-publish a new anonymous role.
    pub(crate) fn publish_anon_role(&self, role: Role) {
        let mut admin = self.admin.lock().expect("auth admin");
        admin.policy.update(|_| AclPolicy { anon_role: role });
    }

    fn anon_role(&self) -> Role {
        self.policy.read(|p| p.anon_role)
    }
}

/// The auth [`Layer`].
pub struct AuthLayer {
    pub(crate) state: Arc<AuthState>,
    metrics: Arc<PipelineMetrics>,
}

impl AuthLayer {
    /// Build the layer, loading `config.tokens` into the table.
    pub fn new(config: &AuthConfig, metrics: Arc<PipelineMetrics>) -> Self {
        let (mut writer, reader) = swmr_hash_map(64);
        for spec in &config.tokens {
            writer.insert(
                spec.token.clone(),
                Principal {
                    name: Arc::from(spec.name.as_str()),
                    role: spec.role,
                },
            );
        }
        let (policy_writer, policy_reader) = rcu_cell(AclPolicy {
            anon_role: config.anon_role,
        });
        AuthLayer {
            state: Arc::new(AuthState {
                tokens: reader,
                policy: policy_reader,
                admin: Mutex::new(AuthAdmin {
                    tokens: writer,
                    policy: policy_writer,
                }),
            }),
            metrics,
        }
    }
}

impl Layer for AuthLayer {
    type Rule = AuthRule;

    fn rule(&self, _session: &Session) -> AuthRule {
        AuthRule {
            state: Arc::clone(&self.state),
            metrics: Arc::clone(&self.metrics),
            principal: None,
        }
    }
}

/// The auth layer's per-session rules.
pub struct AuthRule {
    state: Arc<AuthState>,
    metrics: Arc<PipelineMetrics>,
    /// Session state: who this connection authenticated as.
    principal: Option<Principal>,
}

impl AuthRule {
    /// The session's role (the RCU-published anonymous one before `AUTH`).
    fn role(&self) -> Role {
        match &self.principal {
            Some(p) => p.role,
            None => self.state.anon_role(),
        }
    }
}

/// The ACL rejection of `cmd` for a session whose role is `role`.
fn denied(cmd: &Command, role: Role) -> Response {
    Response::rejection(
        "AUTH",
        format_args!(
            "{} requires {}, session role is {}",
            cmd.verb(),
            match cmd.class() {
                CommandClass::Write => Role::ReadWrite.name(),
                _ => Role::ReadOnly.name(),
            },
            role.name()
        ),
    )
}

impl LayerRule for AuthRule {
    type Ctx = Split;

    /// **One** role lookup per burst — the session principal (or the
    /// RCU-published anon policy) is resolved once, then every command
    /// is a cheap class check against that role. `AUTH` lines are
    /// answered here in the same pass, and a login switches the role
    /// for the commands after it, as sequential execution would.
    /// Admitted commands travel downstream as one inner batch; denied
    /// ones and the logins are answered in place, order preserved.
    fn admit(&mut self, reqs: Vec<Request>) -> Admission<Split> {
        let admission_t = crate::span::start();
        let mut role = self.role();
        // Fast path: no login, everything admitted (the common case for
        // an authenticated or read-write session) — no slot bookkeeping.
        let admitted = |req: &Request| {
            !matches!(req.command, Command::Auth(_)) && role.allows(req.command.class())
        };
        if reqs.iter().all(admitted) {
            self.metrics.auth_admitted.add(reqs.len() as u64);
            crate::span::record(LayerKind::Auth, admission_t);
            return Admission::Pass(reqs);
        }
        let (reqs, answered) = split(reqs, |req| {
            if let Command::Auth(token) = &req.command {
                let Some(principal) = self.state.tokens.get(token) else {
                    self.metrics.auth_denied.increment();
                    return Some(Response::rejection("AUTH", "bad token"));
                };
                self.metrics.auth_logins.increment();
                role = principal.role;
                self.principal = Some(principal);
                Some(Response::ok(Reply::Status("OK")))
            } else if role.allows(req.command.class()) {
                self.metrics.auth_admitted.increment();
                None
            } else {
                self.metrics.auth_denied.increment();
                Some(denied(&req.command, role))
            }
        });
        crate::span::record(LayerKind::Auth, admission_t);
        Admission::Observe(reqs, answered)
    }

    fn observe(&mut self, answered: Split, inner: Vec<Response>) -> Vec<Response> {
        answered.zip(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Service;

    struct Ok200;
    impl Service for Ok200 {
        fn call(&mut self, _req: Request) -> Response {
            Response::ok(Reply::Status("OK"))
        }
    }

    fn layer(anon: Role) -> (AuthLayer, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        let config = AuthConfig {
            tokens: vec![TokenSpec {
                name: "writer".into(),
                token: "sekrit".into(),
                role: Role::ReadWrite,
            }],
            anon_role: anon,
        };
        (AuthLayer::new(&config, Arc::clone(&metrics)), metrics)
    }

    fn session() -> Session {
        Session {
            client: "t:1".into(),
        }
    }

    fn set() -> Request {
        Request::new(Command::Set("k".into(), "v".into()))
    }

    #[test]
    fn anon_readonly_rejects_writes_until_auth() {
        let (layer, metrics) = layer(Role::ReadOnly);
        let mut svc = layer.wrap(&session(), Ok200);
        // Reads pass, writes are rejected with the structured tag.
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Status(_)
        ));
        match svc.call(set()).reply {
            Reply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        // Login upgrades the session.
        assert!(matches!(
            svc.call(Request::new(Command::Auth("sekrit".into()))).reply,
            Reply::Status(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
        assert_eq!(metrics.auth_logins.sum(), 1);
        assert!(metrics.auth_denied.sum() >= 1);
    }

    #[test]
    fn bad_tokens_are_denied_and_do_not_upgrade() {
        let (layer, _) = layer(Role::ReadOnly);
        let mut svc = layer.wrap(&session(), Ok200);
        assert!(matches!(
            svc.call(Request::new(Command::Auth("wrong".into()))).reply,
            Reply::Error(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Error(_)));
    }

    #[test]
    fn control_verbs_pass_even_for_role_none() {
        let (layer, _) = layer(Role::None);
        let mut svc = layer.wrap(&session(), Ok200);
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Error(_)
        ));
    }

    #[test]
    fn batch_resolves_the_role_once_and_preserves_order() {
        let (layer, metrics) = layer(Role::ReadOnly);
        let mut svc = layer.wrap(&session(), Ok200);
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("a".into())),
            set(), // denied: readonly
            Request::new(Command::Ping),
            set(), // denied again
            Request::new(Command::Get("b".into())),
        ]);
        let ok = |r: &Response| matches!(r.reply, Reply::Status(_));
        assert!(ok(&resps[0]));
        assert!(matches!(&resps[1].reply, Reply::Error(e) if e.starts_with("AUTH ")));
        assert!(ok(&resps[2]));
        assert!(matches!(resps[3].reply, Reply::Error(_)));
        assert!(ok(&resps[4]));
        assert_eq!(metrics.auth_admitted.sum(), 3);
        assert_eq!(metrics.auth_denied.sum(), 2);
    }

    #[test]
    fn batch_with_auth_falls_back_to_sequential_login() {
        let (layer, metrics) = layer(Role::ReadOnly);
        let mut svc = layer.wrap(&session(), Ok200);
        // The login in the middle must upgrade the commands after it —
        // exactly what the sequential path does.
        let resps = svc.call_batch(vec![
            set(), // still anon: denied
            Request::new(Command::Auth("sekrit".into())),
            set(), // now readwrite: admitted
        ]);
        assert!(matches!(resps[0].reply, Reply::Error(_)));
        assert!(matches!(resps[1].reply, Reply::Status(_)));
        assert!(matches!(resps[2].reply, Reply::Status(_)));
        assert_eq!(metrics.auth_logins.sum(), 1);
    }

    #[test]
    fn rcu_policy_reload_is_seen_by_live_sessions() {
        let (layer, _) = layer(Role::ReadOnly);
        let state = Arc::clone(&layer.state);
        let mut svc = layer.wrap(&session(), Ok200);
        assert!(matches!(svc.call(set()).reply, Reply::Error(_)));
        state.publish_anon_role(Role::ReadWrite);
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
    }

    #[test]
    fn runtime_token_insertion_takes_effect() {
        let (layer, _) = layer(Role::ReadOnly);
        let state = Arc::clone(&layer.state);
        let mut svc = layer.wrap(&session(), Ok200);
        assert!(matches!(
            svc.call(Request::new(Command::Auth("newtok".into()))).reply,
            Reply::Error(_)
        ));
        state.set_token("ops", "newtok", Role::ReadWrite);
        assert!(matches!(
            svc.call(Request::new(Command::Auth("newtok".into()))).reply,
            Reply::Status(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
    }
}
