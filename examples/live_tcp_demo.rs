//! Live demo: the very same daemon + community state machines running over
//! real loopback TCP sockets instead of the simulator.
//!
//! Run with `cargo run --example live_tcp_demo`. Finishes in a few seconds
//! of wall-clock time.

use std::time::{Duration, Instant};

use community::node::CommunityApp;
use community::profile::Profile;
use community::OpResult;
use peerhood::live::{LiveConfig, LiveServer};

/// Polls `probe` on the member's core thread until it holds or `wall`
/// passes.
fn wait(
    member: &LiveServer<CommunityApp>,
    wall: Duration,
    probe: impl Fn(&CommunityApp) -> bool + Clone + Send + 'static,
) -> bool {
    let deadline = Instant::now() + wall;
    loop {
        let probe = probe.clone();
        if member.with_app(move |app, _| probe(app)) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() -> std::io::Result<()> {
    let started = Instant::now();
    let net = LiveConfig::default().network();
    let alice = net.serve(
        "alice-host",
        CommunityApp::with_member(
            "alice",
            "pw",
            Profile::new("Alice").with_interests(["rust", "networks"]),
        ),
    )?;
    let bob = net.serve(
        "bob-host",
        CommunityApp::with_member(
            "bob",
            "pw",
            Profile::new("Bob").with_interests(["Rust", "sauna"]),
        ),
    )?;

    println!("waiting for discovery + dynamic group formation over loopback TCP...");
    let grouped = |app: &CommunityApp| !app.groups().is_empty();
    let formed = wait(&alice, Duration::from_secs(10), grouped)
        && wait(&bob, Duration::from_secs(10), grouped);
    assert!(formed, "groups must form over live TCP");
    for g in alice.with_app(|app, _| app.groups()) {
        println!("alice sees group {:?}: {:?}", g.label, g.members);
    }

    // A real message over a real socket.
    let op = alice.with_app(|app, ctx| {
        app.send_message("bob", "live", "these bytes crossed a real TCP socket", ctx)
    });
    let delivered = wait(&alice, Duration::from_secs(10), move |app| {
        app.outcome(op).is_some()
    });
    assert!(delivered, "message op must complete");
    match alice
        .with_app(move |app, _| app.outcome(op).cloned())
        .expect("completed")
        .result
    {
        OpResult::MessageResult { written: true } => println!("alice -> bob: delivered"),
        other => println!("message failed: {other:?}"),
    }
    let inbox = bob.with_app(|app, _| {
        app.store()
            .active_account()
            .expect("logged in")
            .mailbox
            .inbox()
            .to_vec()
    });
    for mail in inbox {
        println!("bob's inbox: {mail}");
    }
    println!("elapsed wall-clock: {:?}", started.elapsed());
    alice.shutdown();
    bob.shutdown();
    Ok(())
}
