(* Per-operation timings of single layers, each loop one root span: SHA-256
   and HMAC, PKI sign/verify/tally/threshold verify, the wire codec per
   message kind, one transport round trip, and the engine's per-slot cost
   with a protocol that does nothing. Inputs are made from the workload
   seed before each loop starts; only the loop itself is timed. *)

open Mewc_prelude
open Mewc_crypto
open Mewc_sim
open Mewc_core
module Codec = Mewc_wire.Codec
module Transport = Mewc_wire.Transport
module Clock = Mewc_wire.Clock
module Zoo = Mewc_wire.Zoo

(* [per_op label ops f] runs [f] under a root span and returns ns per op. *)
let per_op label ops f =
  float (Tracer.duration_ns (Tracer.micro label f)) /. float ops

let check what ok = if not ok then failwith ("micro loop: " ^ what)

type crypto = {
  sha256_ns : float;
  hmac_ns : float;
  sign_ns : float;
  verify_hit_ns : float;
  verify_miss_ns : float;
  tally_add_ns : float;
  tsig_verify_ns : float;  (** cold caches: the k-share aggregate recomputed *)
}

let crypto ~seed =
  let n = 401 and ops = 4000 in
  let k = (n / 2) + 1 in
  let rng = Rng.create seed in
  let msgs = Array.init ops (fun i -> Printf.sprintf "m%d-%Ld" i (Rng.int64 rng)) in
  let sha256_ns =
    per_op "micro.sha256" ops (fun () -> Array.iter (fun m -> ignore (Sha256.digest m)) msgs)
  in
  let key = Sha256.hmac_key "perfbench-key" in
  let hmac_ns =
    per_op "micro.hmac" ops (fun () ->
        Array.iter (fun m -> ignore (Sha256.hmac_with key m)) msgs)
  in
  let pki, secrets = Pki.setup ~seed ~n () in
  let signer i = secrets.(i mod n) in
  let sigs = Array.make ops (Pki.sign pki secrets.(0) msgs.(0)) in
  let sign_ns =
    per_op "micro.sign" ops (fun () ->
        Array.iteri (fun i m -> sigs.(i) <- Pki.sign pki (signer i) m) msgs)
  in
  Pki.reset_counters pki;
  let verify_all () =
    Array.iteri (fun i s -> check "verify" (Pki.verify pki s ~msg:msgs.(i))) sigs
  in
  let verify_miss_ns = per_op "micro.verify_miss" ops verify_all in
  let verify_hit_ns = per_op "micro.verify_hit" ops verify_all in
  (* Shares of every signer on one message, verified once already: the
     tally path a broadcast share takes at all but its first receiver. *)
  let shares = Array.init n (fun i -> Pki.sign pki secrets.(i) msgs.(0)) in
  Array.iter (fun s -> check "share" (Pki.verify pki s ~msg:msgs.(0))) shares;
  let rounds = 10 in
  let tally_add_ns =
    per_op "micro.tally_add" (rounds * n) (fun () ->
        for _ = 1 to rounds do
          let tl = Pki.tally pki ~k:n ~msg:msgs.(0) in
          Array.iter (fun s -> check "tally" (Pki.Tally.add tl s = Pki.Tally.Added)) shares
        done)
  in
  let certs = 20 in
  let tsigs =
    Array.init certs (fun c ->
        let msg = msgs.(c) in
        let shares = List.init k (fun i -> Pki.sign pki secrets.(i) msg) in
        Option.get (Pki.combine pki ~k ~msg shares))
  in
  let cold =
    Array.map
      (fun ts ->
        let signers, tag = Pki.Wire.tsig_view ts in
        Pki.Wire.tsig_of_view ~signers ~tag)
      tsigs
  in
  Pki.reset_counters pki;
  let tsig_verify_ns =
    per_op "micro.tsig_verify" certs (fun () ->
        Array.iteri (fun c ts -> check "tsig" (Pki.verify_tsig pki ts ~k ~msg:msgs.(c))) cold)
  in
  { sha256_ns; hmac_ns; sign_ns; verify_hit_ns; verify_miss_ns; tally_add_ns; tsig_verify_ns }

(* ---- wire ---------------------------------------------------------------- *)

type kind = Kind : string * 'm Codec.t * (Rng.t -> 'm) -> kind

let kinds =
  [
    Kind ("epk_str", Zoo.epk_str_msg, Zoo.Gen.epk_str);
    Kind ("epk_bool", Zoo.epk_bool_msg, Zoo.Gen.epk_bool);
    Kind ("weak_str", Zoo.weak_str_msg, Zoo.Gen.weak_str);
    Kind ("adaptive_bb", Zoo.adaptive_bb_msg, Zoo.Gen.adaptive);
    Kind ("binary_bb", Zoo.binary_bb_msg, Zoo.Gen.binary);
    Kind ("strong_ba", Zoo.strong_bool_msg, Zoo.Gen.strong);
  ]

type codec = {
  encode_ns : (string * float) list;  (** per kind *)
  decode_ns : (string * float) list;
  frame_encode_ns : float;
  scan_ns : float;
}

let codec ~seed =
  let ops = 2000 in
  let rng = Rng.create seed in
  let timings =
    List.map
      (fun (Kind (name, c, gen)) ->
        let msgs = Array.init ops (fun _ -> gen rng) in
        let bytes = Array.make ops "" in
        let enc =
          per_op ("micro.encode." ^ name) ops (fun () ->
              Array.iteri (fun i m -> bytes.(i) <- Codec.encode c m) msgs)
        in
        let dec =
          per_op ("micro.decode." ^ name) ops (fun () ->
              Array.iter (fun b -> check "decode" (Result.is_ok (Codec.decode c b))) bytes)
        in
        ((name, enc), (name, dec)))
      kinds
  in
  let frames = Array.init ops (fun _ -> Zoo.Gen.frame rng) in
  let encoded = Array.make ops "" in
  let frame_encode_ns =
    per_op "micro.frame_encode" ops (fun () ->
        Array.iteri (fun i f -> encoded.(i) <- Codec.encode_frame f) frames)
  in
  let scan_ns =
    per_op "micro.scan" ops (fun () ->
        Array.iter
          (fun b ->
            check "scan" (match Codec.scan b ~start:0 with `Frame _ -> true | _ -> false))
          encoded)
  in
  { encode_ns = List.map fst timings; decode_ns = List.map snd timings; frame_encode_ns; scan_ns }

(* One send and one receive between two endpoints of a single hub, in
   microseconds. *)
let transport_roundtrip_us () =
  let ops = 2000 in
  let hub = Transport.create ~n:2 in
  Fun.protect
    ~finally:(fun () -> Transport.close hub)
    (fun () ->
      let a = Transport.endpoint hub ~pid:0 and b = Transport.endpoint hub ~pid:1 in
      let frame =
        Codec.encode_frame
          { Codec.kind = Msg; src = 0; dst = 1; slot = 0; seq = 0; payload = String.make 96 'p' }
      in
      let clock = Clock.real in
      1e-3
      *. per_op "micro.transport_roundtrip" ops (fun () ->
             for _ = 1 to ops do
               let deadline = clock.now () +. 5. in
               (match Transport.send a ~clock ~deadline ~dst:1 frame with
               | `Sent _ -> ()
               | `Timeout -> failwith "transport send timed out");
               match Transport.recv b ~clock ~deadline with
               | `Frame _ -> ()
               | `Rejected _ | `Timeout -> failwith "transport recv failed"
             done))

(* ---- engine --------------------------------------------------------------- *)

(* A protocol that never sends: every process steps every slot on an empty
   inbox and is decided from the start. Run through [Instances.run] it
   prices the engine's per-slot overhead with no protocol work at all. *)
module Noop = struct
  type value = unit
  type params = { horizon : int }
  type state = unit
  type msg = unit
  type decision = unit

  let name = "noop"
  let words () = 1
  let encode_msg () = ""
  let default_params _ = { horizon = 1 }
  let mutate_params p ~salt:_ = p
  let validate_params ~cfg:_ ~params:_ = ()
  let horizon ~cfg:_ ~params = params.horizon

  let machine ~cfg:_ ~pki:_ ~secret:_ ~params:_ ~pid:_ =
    { Process.init = (); step = (fun ~slot:_ ~inbox:_ () -> ((), [])); wake = None }

  let decision () = Some ()
  let decided_at () = Some 0
  let decided_str () = Some "noop"
  let monitors ~cfg:_ ~params:_ = []
  let counters _ = { Protocol.fallback_runs = 0; nonsilent_phases = 0; help_requests = 0 }
  let spray = None
end


(* ns per slot of [Instances.run] over [Noop] at the service
   workload's size. *)
let noop_slot_ns ~seed =
  let n = 33 and horizon = 20_000 in
  per_op "micro.noop_engine" horizon (fun () ->
      ignore
        (Instances.run
           (module Noop)
           ~cfg:(Config.optimal ~n)
           ~options:(Workloads.Opts.instances ~seed ~shards:1)
           ~params:{ Noop.horizon }
           ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
           ()))
