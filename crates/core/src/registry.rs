//! The function table's in-process half.
//!
//! "When a remote function is declared, the function is automatically
//! published to all workers" (paper §4.1). In-process, publication is an
//! `Arc`: every worker on every simulated node resolves [`FunctionId`]s
//! against the same registry. The GCS function table (names only) is kept
//! in sync for observability, mirroring Fig. 7a step 0.
//!
//! Remote functions receive a [`RayContext`](crate::context::RayContext)
//! so they can invoke *nested* remote functions — "critical for achieving
//! high scalability" (§3.1) — plus their codec-encoded arguments, and
//! return codec-encoded outputs.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ray_common::sync::{classes, OrderedRwLock};

use ray_common::{FunctionId, RayError, RayResult};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::context::RayContext;

/// Outcome of a user function: encoded return payloads or an
/// application-level error message.
///
/// A payload is stored as the object exactly as returned, without a copy,
/// so an actor may return a clone of bytes it keeps: `Bytes` is immutable,
/// so the sealed object and the actor's copy can never disagree.
pub type RemoteResult = Result<Vec<Bytes>, String>;

/// A registered remote function.
pub type RemoteFn = Arc<dyn Fn(&RayContext, &[Bytes]) -> RemoteResult + Send + Sync>;

/// A stateful actor instance, driven serially by its host worker.
///
/// Implementors dispatch on `method` and may use the context for nested
/// remote calls. Checkpointing is opt-in: implement both
/// [`ActorInstance::checkpoint`] and [`ActorInstance::restore`] to bound
/// replay after failures (paper Fig. 11b).
pub trait ActorInstance: Send {
    /// Executes one method invocation. Methods on one actor never run
    /// concurrently (stateful-edge serialization, §3.2).
    fn call(&mut self, ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult;

    /// Serializes the actor's state for a checkpoint, or `None` if this
    /// actor does not support checkpointing.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state from a checkpoint taken by [`Self::checkpoint`].
    fn restore(&mut self, _data: &[u8]) -> Result<(), String> {
        Err("actor does not implement checkpoint restore".into())
    }
}

/// A registered actor constructor.
pub type ActorCtor =
    Arc<dyn Fn(&RayContext, &[Bytes]) -> Result<Box<dyn ActorInstance>, String> + Send + Sync>;

enum Registered {
    Function(RemoteFn),
    Actor(ActorCtor),
}

/// The shared registry of remote functions and actor classes.
#[derive(Clone)]
pub struct FunctionRegistry {
    inner: Arc<OrderedRwLock<HashMap<FunctionId, (String, Registered)>>>,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        FunctionRegistry {
            inner: Arc::new(OrderedRwLock::new(&classes::FUNCTION_REGISTRY, HashMap::new())),
        }
    }
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers a raw remote function under `name`.
    ///
    /// Returns the function's ID (the stable hash of its name).
    pub fn register_raw(
        &self,
        name: &str,
        f: impl Fn(&RayContext, &[Bytes]) -> RemoteResult + Send + Sync + 'static,
    ) -> FunctionId {
        let id = FunctionId::for_name(name);
        self.inner
            .write()
            .insert(id, (name.to_string(), Registered::Function(Arc::new(f))));
        id
    }

    /// Registers an actor class constructor under `name`.
    pub fn register_actor(
        &self,
        name: &str,
        ctor: impl Fn(&RayContext, &[Bytes]) -> Result<Box<dyn ActorInstance>, String>
            + Send
            + Sync
            + 'static,
    ) -> FunctionId {
        let id = FunctionId::for_name(name);
        self.inner
            .write()
            .insert(id, (name.to_string(), Registered::Actor(Arc::new(ctor))));
        id
    }

    /// Looks up a remote function.
    pub fn function(&self, id: FunctionId) -> RayResult<RemoteFn> {
        match self.inner.read().get(&id) {
            Some((_, Registered::Function(f))) => Ok(f.clone()),
            Some((name, Registered::Actor(_))) => {
                Err(RayError::Invalid(format!("{name} is an actor class, not a function")))
            }
            None => Err(RayError::FunctionNotFound(format!("{id}"))),
        }
    }

    /// Looks up an actor constructor.
    pub fn actor_ctor(&self, id: FunctionId) -> RayResult<ActorCtor> {
        match self.inner.read().get(&id) {
            Some((_, Registered::Actor(c))) => Ok(c.clone()),
            Some((name, Registered::Function(_))) => {
                Err(RayError::Invalid(format!("{name} is a function, not an actor class")))
            }
            None => Err(RayError::FunctionNotFound(format!("{id}"))),
        }
    }
}

/// Decodes the `i`-th argument of a remote function.
///
/// User functions call this on the `args` slice they receive.
pub fn decode_arg<T: DeserializeOwned>(args: &[Bytes], i: usize) -> Result<T, String> {
    let raw = args.get(i).ok_or_else(|| format!("missing argument {i}"))?;
    ray_codec::decode(raw).map_err(|e| format!("argument {i}: {e}"))
}

/// Encodes a single return value.
pub fn encode_return<T: Serialize>(value: &T) -> RemoteResult {
    match ray_codec::encode(value) {
        Ok(b) => Ok(vec![Bytes::from(b)]),
        Err(e) => Err(format!("encode return: {e}")),
    }
}

/// Views the `i`-th argument as the `f64` tensor blob that
/// [`encode_return_f64s`] or `Arg::value(&Blob::from_f64s(..))` produced,
/// without copying it out of the argument buffer.
pub fn f64s_arg(args: &[Bytes], i: usize) -> Result<ray_codec::tensor::F64View<'_>, String> {
    let raw = args.get(i).ok_or_else(|| format!("missing argument {i}"))?;
    ray_codec::tensor::F64View::of_encoded_blob(raw).map_err(|e| format!("argument {i}: {e}"))
}

/// Encodes a slice of `f64`s as a single tensor-blob return value (callers
/// read it as `ObjectRef<Blob>`), copying the payload once.
pub fn encode_return_f64s(data: &[f64]) -> RemoteResult {
    Ok(vec![Bytes::from(ray_codec::tensor::encode_f64_blob(data))])
}

/// Encodes multiple return values.
pub fn encode_returns<T: Serialize>(values: &[T]) -> RemoteResult {
    values
        .iter()
        .map(|v| ray_codec::encode(v).map(Bytes::from).map_err(|e| format!("encode return: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_resolve_function() {
        let r = FunctionRegistry::new();
        let id = r.register_raw("add", |_, _| Ok(vec![]));
        assert_eq!(id, FunctionId::for_name("add"));
        assert!(r.function(id).is_ok());
        assert!(r.function(FunctionId::for_name("missing")).is_err());
    }

    #[test]
    fn actor_and_function_namespaces_are_checked() {
        let r = FunctionRegistry::new();
        struct Nop;
        impl ActorInstance for Nop {
            fn call(&mut self, _: &RayContext, _: &str, _: &[Bytes]) -> RemoteResult {
                Ok(vec![])
            }
        }
        let fid = r.register_raw("f", |_, _| Ok(vec![]));
        let aid = r.register_actor("A", |_, _| Ok(Box::new(Nop)));
        assert!(r.function(aid).is_err());
        assert!(r.actor_ctor(fid).is_err());
        assert!(r.actor_ctor(aid).is_ok());
    }

    #[test]
    fn decode_arg_reports_missing_and_malformed() {
        let args = vec![Bytes::from(ray_codec::encode(&7u32).unwrap())];
        assert_eq!(decode_arg::<u32>(&args, 0).unwrap(), 7);
        assert!(decode_arg::<u32>(&args, 1).is_err());
        assert!(decode_arg::<String>(&args, 0).is_err());
    }

    #[test]
    fn encode_returns_multi() {
        let out = encode_returns(&[1u8, 2, 3]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(ray_codec::decode::<u8>(&out[2]).unwrap(), 3);
    }
}
