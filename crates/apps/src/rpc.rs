//! Remote procedure call over ALF.
//!
//! §6: "the data in the ADU be separated into different values which are
//! stored in different variables of some program. This is the general
//! paradigm of the Remote Procedure Call." Arguments are marshalled
//! through the presentation layer (XDR here), each call is one
//! [`AduName::Rpc`]-named ADU, and **calls complete out of order** — a lost
//! or slow call never stalls the calls behind it.
//!
//! The demo service implements three procedures over `u32` arrays so that
//! marshalling is the paper's benchmark workload.

use alf_core::adu::{Adu, AduName};
use ct_presentation::{xdr, CodecError};
use std::collections::BTreeMap;

/// Procedure identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proc {
    /// Sum of the argument array (returns a 1-element array).
    Sum,
    /// Echo the argument array.
    Echo,
    /// Element-wise square of the argument array.
    Square,
}

impl Proc {
    fn code(self) -> u32 {
        match self {
            Proc::Sum => 1,
            Proc::Echo => 2,
            Proc::Square => 3,
        }
    }

    fn from_code(code: u32) -> Option<Proc> {
        match code {
            1 => Some(Proc::Sum),
            2 => Some(Proc::Echo),
            3 => Some(Proc::Square),
            _ => None,
        }
    }

    /// Execute the procedure on its argument.
    pub fn execute(self, args: &[u32]) -> Vec<u32> {
        match self {
            Proc::Sum => vec![args.iter().fold(0u32, |a, &b| a.wrapping_add(b))],
            Proc::Echo => args.to_vec(),
            Proc::Square => args.iter().map(|&v| v.wrapping_mul(v)).collect(),
        }
    }
}

/// ADU `part` number used for requests and responses.
const PART_REQUEST: u16 = 0;
/// Response part.
const PART_RESPONSE: u16 = 1;

/// Errors from RPC marshalling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Presentation decode failed.
    Codec(CodecError),
    /// Unknown procedure code.
    UnknownProc(u32),
    /// ADU name is not in the RPC name-space or has the wrong part.
    BadName,
}

impl From<CodecError> for RpcError {
    fn from(e: CodecError) -> Self {
        RpcError::Codec(e)
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Codec(e) => write!(f, "presentation error: {e}"),
            RpcError::UnknownProc(c) => write!(f, "unknown procedure {c}"),
            RpcError::BadName => write!(f, "ADU is not an RPC request/response"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Marshal a call into a request ADU: `[proc code][args]` in XDR.
pub fn marshal_request(call_id: u32, proc: Proc, args: &[u32]) -> Adu {
    let mut body = Vec::with_capacity(4 + 4 + args.len() * 4);
    xdr::put_u32(&mut body, proc.code());
    xdr::put_u32_array(&mut body, args);
    Adu::new(
        AduName::Rpc {
            call: call_id,
            part: PART_REQUEST,
        },
        body,
    )
}

/// Unmarshal a request ADU into `(call_id, proc, args)`.
///
/// # Errors
/// [`RpcError`] on foreign names, unknown procedures, or codec failures.
pub fn unmarshal_request(adu: &Adu) -> Result<(u32, Proc, Vec<u32>), RpcError> {
    let AduName::Rpc { call, part } = adu.name else {
        return Err(RpcError::BadName);
    };
    if part != PART_REQUEST {
        return Err(RpcError::BadName);
    }
    let mut r = xdr::XdrReader::new(&adu.payload);
    let code = r.u32()?;
    let proc = Proc::from_code(code).ok_or(RpcError::UnknownProc(code))?;
    // The rest is the argument array; re-slice and decode.
    let consumed = adu.payload.len() - r.remaining();
    let args = xdr::decode_u32_array(&adu.payload[consumed..])?;
    Ok((call, proc, args))
}

/// Marshal a response ADU.
pub fn marshal_response(call_id: u32, result: &[u32]) -> Adu {
    Adu::new(
        AduName::Rpc {
            call: call_id,
            part: PART_RESPONSE,
        },
        xdr::encode_u32_array(result),
    )
}

/// Unmarshal a response ADU into `(call_id, result)`.
///
/// # Errors
/// [`RpcError`] on foreign names or codec failures.
pub fn unmarshal_response(adu: &Adu) -> Result<(u32, Vec<u32>), RpcError> {
    let AduName::Rpc { call, part } = adu.name else {
        return Err(RpcError::BadName);
    };
    if part != PART_RESPONSE {
        return Err(RpcError::BadName);
    }
    Ok((call, xdr::decode_u32_array(&adu.payload)?))
}

/// The server side: executes request ADUs, in whatever order they arrive.
#[derive(Debug, Default)]
pub struct RpcServer {
    /// Calls served.
    pub calls_served: u64,
    /// Malformed requests rejected.
    pub errors: u64,
}

impl RpcServer {
    /// Create a server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle one request ADU, producing a response ADU.
    pub fn handle(&mut self, adu: &Adu) -> Result<Adu, RpcError> {
        match unmarshal_request(adu) {
            Ok((call, proc, args)) => {
                self.calls_served += 1;
                Ok(marshal_response(call, &proc.execute(&args)))
            }
            Err(e) => {
                self.errors += 1;
                Err(e)
            }
        }
    }
}

/// The client side: issues calls, matches out-of-order responses.
#[derive(Debug, Default)]
pub struct RpcClient {
    next_call: u32,
    outstanding: BTreeMap<u32, Proc>,
    completed: Vec<(u32, Proc, Vec<u32>)>,
    /// Responses that matched no outstanding call.
    pub orphan_responses: u64,
}

impl RpcClient {
    /// Create a client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue a call; returns the request ADU to transmit.
    pub fn call(&mut self, proc: Proc, args: &[u32]) -> Adu {
        let id = self.next_call;
        self.next_call += 1;
        self.outstanding.insert(id, proc);
        marshal_request(id, proc, args)
    }

    /// Ingest a response ADU.
    ///
    /// # Errors
    /// [`RpcError`] if the ADU is not a well-formed response.
    pub fn on_response(&mut self, adu: &Adu) -> Result<(), RpcError> {
        let (call, result) = unmarshal_response(adu)?;
        match self.outstanding.remove(&call) {
            Some(proc) => self.completed.push((call, proc, result)),
            None => self.orphan_responses += 1,
        }
        Ok(())
    }

    /// Completed calls, in completion (arrival) order: `(id, proc, result)`.
    pub fn take_completed(&mut self) -> Vec<(u32, Proc, Vec<u32>)> {
        std::mem::take(&mut self.completed)
    }

    /// Calls still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshal_roundtrip() {
        let adu = marshal_request(7, Proc::Square, &[1, 2, 3]);
        let (call, proc, args) = unmarshal_request(&adu).unwrap();
        assert_eq!(call, 7);
        assert_eq!(proc, Proc::Square);
        assert_eq!(args, vec![1, 2, 3]);
    }

    #[test]
    fn procedures_compute() {
        assert_eq!(Proc::Sum.execute(&[1, 2, 3]), vec![6]);
        assert_eq!(Proc::Echo.execute(&[9, 8]), vec![9, 8]);
        assert_eq!(Proc::Square.execute(&[2, 3]), vec![4, 9]);
        assert_eq!(Proc::Sum.execute(&[u32::MAX, 1]), vec![0], "wrapping");
    }

    #[test]
    fn end_to_end_call() {
        let mut client = RpcClient::new();
        let mut server = RpcServer::new();
        let req = client.call(Proc::Sum, &[10, 20, 30]);
        let resp = server.handle(&req).unwrap();
        client.on_response(&resp).unwrap();
        let done = client.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].2, vec![60]);
        assert_eq!(client.outstanding(), 0);
        assert_eq!(server.calls_served, 1);
    }

    #[test]
    fn out_of_order_responses_complete_out_of_order() {
        let mut client = RpcClient::new();
        let mut server = RpcServer::new();
        let r0 = client.call(Proc::Echo, &[1]);
        let r1 = client.call(Proc::Echo, &[2]);
        let r2 = client.call(Proc::Echo, &[3]);
        // Server answers 2, 0, 1 — client completes in that order, never
        // blocking call 2 on the others.
        for req in [&r2, &r0, &r1] {
            let resp = server.handle(req).unwrap();
            client.on_response(&resp).unwrap();
        }
        let done = client.take_completed();
        assert_eq!(
            done.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
        assert_eq!(done[0].2, vec![3]);
    }

    #[test]
    fn lost_call_reported_by_call_id_not_bytes() {
        let mut client = RpcClient::new();
        let _lost = client.call(Proc::Sum, &[1, 2]);
        let kept = client.call(Proc::Sum, &[3, 4]);
        let mut server = RpcServer::new();
        let resp = server.handle(&kept).unwrap();
        client.on_response(&resp).unwrap();
        // The application can see exactly which call is outstanding.
        assert_eq!(client.outstanding(), 1);
    }

    #[test]
    fn unknown_proc_rejected() {
        let mut body = Vec::new();
        xdr::put_u32(&mut body, 99);
        body.extend_from_slice(&xdr::encode_u32_array(&[]));
        let adu = Adu::new(AduName::Rpc { call: 0, part: 0 }, body);
        assert_eq!(unmarshal_request(&adu), Err(RpcError::UnknownProc(99)));
    }

    #[test]
    fn wrong_namespace_rejected() {
        let adu = Adu::new(AduName::Seq { index: 0 }, vec![]);
        assert_eq!(unmarshal_request(&adu), Err(RpcError::BadName));
        assert!(unmarshal_response(&adu).is_err());
    }

    #[test]
    fn response_part_mismatch_rejected() {
        let req = marshal_request(1, Proc::Echo, &[5]);
        assert!(unmarshal_response(&req).is_err());
        let resp = marshal_response(1, &[5]);
        assert!(unmarshal_request(&resp).is_err());
    }

    #[test]
    fn orphan_response_counted() {
        let mut client = RpcClient::new();
        let resp = marshal_response(42, &[1]);
        client.on_response(&resp).unwrap();
        assert_eq!(client.orphan_responses, 1);
        assert!(client.take_completed().is_empty());
    }

    #[test]
    fn corrupt_payload_is_codec_error() {
        let adu = Adu::new(AduName::Rpc { call: 1, part: 0 }, vec![0, 0]);
        assert!(matches!(unmarshal_request(&adu), Err(RpcError::Codec(_))));
        let mut server = RpcServer::new();
        assert!(server.handle(&adu).is_err());
        assert_eq!(server.errors, 1);
    }
}
