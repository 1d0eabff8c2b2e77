//! The middleware server end to end: boot a sharded `dego-server`
//! behind the full seven-layer pipeline, speak the wire protocol,
//! inspect both planes' stats.
//!
//! Run with: `cargo run --example server_roundtrip`
//!
//! Two modes:
//!
//! * **embedded** (default): boots an in-process server with the full
//!   `trace → deadline → auth → rate-limit → ttl` stack and a demo
//!   token, then walks the protocol surface;
//! * **external**: set `DEGO_SERVER_ADDR=host:port` to drive an
//!   already-running `dego-server` instead. When the target requires
//!   authentication, pass the token via `DEGO_AUTH_TOKEN`.
//!
//! Exits non-zero on any protocol failure, so it doubles as a smoke
//! check.

use dego_server::{spawn, Client, MiddlewareConfig, Role, ServerConfig, ServerHandle, TokenSpec};

fn check(cond: bool, what: &str) -> std::io::Result<()> {
    if cond {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("check failed: {what}")))
    }
}

fn main() -> std::io::Result<()> {
    // 1. Find or boot a server.
    let external = std::env::var("DEGO_SERVER_ADDR").ok();
    let embedded: Option<ServerHandle> = match &external {
        Some(_) => None,
        None => {
            let mut middleware = MiddlewareConfig::full();
            middleware.auth.tokens = vec![TokenSpec {
                name: "demo".into(),
                token: "demo-token".into(),
                role: Role::ReadWrite,
            }];
            Some(spawn(ServerConfig {
                shards: 4,
                middleware,
                ..ServerConfig::default()
            })?)
        }
    };
    let addr = match (&external, &embedded) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!("one mode is always selected"),
    };
    println!("driving dego-server at {addr}");

    // 2. Authenticate when a token is at hand (embedded mode always
    //    has one; external mode via DEGO_AUTH_TOKEN).
    let mut c = Client::connect(&*addr)?;
    let token = std::env::var("DEGO_AUTH_TOKEN").unwrap_or_else(|_| "demo-token".to_string());
    if embedded.is_some() || std::env::var("DEGO_AUTH_TOKEN").is_ok() {
        c.auth(&token)?;
        println!("AUTH              -> OK");
    }

    // 3. Plain key-value traffic.
    c.set("motd", "adjust your objects")?;
    println!("GET motd          -> {:?}", c.get("motd")?);
    check(
        c.get("motd")?.as_deref() == Some("adjust your objects"),
        "SET/GET",
    )?;
    println!("INCR visits       -> {}", c.incr("visits", 1)?);
    println!("INCR visits       -> {}", c.incr("visits", 1)?);
    c.del("motd")?;
    check(c.get("motd")?.is_none(), "DEL")?;
    println!("GET motd (deleted)-> {:?}", c.get("motd")?);

    // 4. TTL: arm a timer, watch the key lazily expire.
    c.set("ephemeral", "going going gone")?;
    let armed = c.expire("ephemeral", 150)?;
    println!("EXPIRE ephemeral  -> {armed}");
    check(armed, "EXPIRE arms on a live key")?;
    std::thread::sleep(std::time::Duration::from_millis(300));
    let expired = c.get("ephemeral")?;
    println!("GET after TTL     -> {expired:?}");
    check(expired.is_none(), "TTL lazily expires")?;

    // 5. Pipelining: many commands, one round trip, through the
    //    server's batched begin_batch/group-commit path. The burst size
    //    is tunable (`DEGO_ROUNDTRIP_PIPELINE`) and the replies
    //    come back in request order — including the GET-after-SET in
    //    the same burst, which the server barriers on.
    let burst: usize = std::env::var("DEGO_ROUNDTRIP_PIPELINE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
        .max(8); // key5 below must exist whatever the tuning says
    let mut script: Vec<String> = (0..burst).map(|i| format!("SET key{i} value{i}")).collect();
    script.push("GET key5".to_string());
    let replies = c.pipeline(&script)?;
    println!(
        "pipelined {burst} SETs + 1 GET -> {} replies, key5 = {:?}",
        replies.len(),
        replies.last()
    );
    check(replies.len() == burst + 1, "one reply per request")?;
    check(
        matches!(replies.last(), Some(dego_server::ClientReply::Value(v)) if v == "value5"),
        "batched GET observes the SET before it",
    )?;

    // 6. The retwis verbs: a tiny social graph. User ids are derived
    //    from the process id so re-running against a persistent
    //    external server starts from fresh rows every time.
    let u = std::process::id() as u64 * 100;
    for user in u..u + 3 {
        c.add_user(user)?;
    }
    c.follow(u + 1, u)?; // u+1 follows u
    c.follow(u + 2, u)?; // u+2 follows u
    c.post(u, 1001)?;
    c.post(u, 1002)?;
    println!("timeline of u+1   -> {:?}", c.timeline(u + 1)?);
    check(c.timeline(u + 1)? == vec![1002, 1001], "timeline fan-out")?;
    println!("followers of u    -> {}", c.follower_count(u)?);
    c.join_group(u + 2)?;
    println!("u+2 in group      -> {}", c.in_group(u + 2)?);

    // 7. The stats endpoint: server and storage-plane counters, then
    //    the pipeline's per-layer mw_* lines (whatever the stack).
    println!("\nSTATS:");
    for (name, value) in c.stats()? {
        println!("  {name:>20} = {value}");
    }

    // 8. Clean shutdown (embedded mode only).
    drop(c);
    if let Some(server) = embedded {
        server.shutdown();
        println!("\nserver stopped cleanly");
    } else {
        println!("\nexternal server left running");
    }
    Ok(())
}
