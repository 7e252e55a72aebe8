//! The in-process directory that turns live servers into a neighborhood.

use std::io;
use std::sync::Arc;

use crate::app::Application;

use super::config::LiveConfig;
use super::reactor::{Directory, LiveServer};

/// A neighborhood of [`LiveServer`]s on real TCP sockets that find each
/// other through a shared in-process directory.
///
/// Every member is a full server: it accepts connections and dials the
/// other members. Its `DeviceId` is its index in the directory (boot
/// order), and discovery — inquiries and service queries — is answered
/// from the directory, standing in for the WLAN plugin's broadcast
/// machinery. Built through [`LiveConfig::network`]; script members with
/// [`LiveServer::with_app`].
///
/// # Example
///
/// See `examples/live_tcp_demo.rs`; the reactor test
/// `live_round_trip_over_real_tcp` is a minimal end-to-end run.
pub struct LiveNet<A> {
    pub(super) config: LiveConfig,
    pub(super) directory: Directory<A>,
}

impl<A: Application + Send + 'static> LiveNet<A> {
    /// Boots the next member, named `name` and serving `app` under the
    /// net's config. A member stays listed after it shuts down; dialing it
    /// then fails.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn serve(&self, name: impl Into<String>, app: A) -> io::Result<LiveServer<A>> {
        let directory = Arc::clone(&self.directory);
        LiveServer::boot(self.config.clone(), name.into(), app, None, directory)
    }
}
