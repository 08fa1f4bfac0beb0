(* The benchmark's workloads: how each one is set up from the workload
   seed, how one run calls into the program, and what makes a run correct.

   Every workload is a closed loop driven by [Main]: one caller, the next
   run starts when the last one returned. Each run gets a fresh
   trusted-setup seed derived from the workload seed; everything else
   (inputs, crash victims, client traffic) is fixed per workload seed. *)

open Mewc_prelude
open Mewc_crypto
open Mewc_sim
open Mewc_core
module Metrics = Mewc_obs.Metrics
module Runtime = Mewc_wire.Runtime
module Zoo = Mewc_wire.Zoo

(* ---- the one place run options are built ------------------------------ *)

module Opts = struct
  let scheduler : Engine.scheduler = `Event_driven

  let instances ~seed ~shards =
    { Instances.default_options with seed; scheduler; shards }

  let engine ?metrics ~shards () = { Engine.default_options with scheduler; shards; metrics }
end

(* ---- workload identities ---------------------------------------------- *)

type kind = Weak_ba | Service | Async

type spec = {
  name : string;
  kind : kind;
  n : int;
  f : int;  (** processes crashed at slot 0 *)
  shards : int;
  warmups : int;  (** warm-up runs in one set-up *)
}

let specs =
  [
    (* The paper's linear fast path at the largest recorded n; the engine's
       per-slot wake scan dominates it. For scheduler and engine changes. *)
    { name = "weak-ff-2001"; kind = Weak_ba; n = 2001; f = 0; shards = 1; warmups = 1 };
    (* The quadratic fallback: protocol steps, the crypto caches, the
       deliver/post phases and the GC. Timed on one domain: on a shared
       two-CPU host a two-shard run's wall time follows how the host
       schedules both CPUs. The traced loop runs it at two shards too, for
       the Pool's figures. *)
    { name = "weak-crash-401"; kind = Weak_ba; n = 401; f = 200; shards = 1; warmups = 1 };
    (* The same engine used differently: ~200 small pipelined BB instances,
       batching under the word cap, and the slot latency clients see. *)
    { name = "service-heavytail-33"; kind = Service; n = 33; f = 0; shards = 1; warmups = 1 };
  ]

(* The fallback protocol on the async wire runtime, n=3: the only run that
   crosses Codec, Transport and the runtime barrier. Its wall time follows
   how the host schedules four threads on two CPUs more than the program,
   so it is not a timed workload; the traced loop of every workload runs it
   to measure the runtime layer. *)
let async_fallback = { name = "async-fallback-3"; kind = Async; n = 3; f = 0; shards = 1; warmups = 1 }

let find name = List.find_opt (fun s -> s.name = name) specs

(* Fixed client traffic for the service workload. *)
let traffic_slots = 1024
let traffic_profile = "heavy-tail"

(* ---- one run's facts --------------------------------------------------- *)

type facts = {
  decisions : int;  (** agreement runs decided; decided batches for the service *)
  requests : int;  (** client values committed *)
  words : int;  (** words sent by correct processes (the paper's measure) *)
  messages : int;
  slots : int;  (** simulated slots executed *)
  commit_slots : int;
      (** slots until commit: the run's latency, or the service's p99
          request latency *)
  crypto : Pki.cache_stats;
  signatures : int;
  batches : int;
  batch_fill : float;
  wire : Runtime.stats option;
}

let empty_facts =
  {
    decisions = 0;
    requests = 0;
    words = 0;
    messages = 0;
    slots = 0;
    commit_slots = 0;
    crypto = Pki.no_cache_stats;
    signatures = 0;
    batches = 0;
    batch_fill = 0.;
    wire = None;
  }

(* ---- set-up ------------------------------------------------------------ *)

type t = {
  spec : spec;
  seed : int64;
  cfg : Config.t;
  victims : Pid.t list;
  traffic : Workload.request list;
  mutable expected_words : int option;
      (** the first run's words; later runs must repeat it *)
}

(* Run [i]'s trusted-setup seed. *)
let run_seed t i = Rng.mix (Int64.add (Rng.mix t.seed) (Int64.of_int (i + 1)))

(* The value every process proposes in a run, from the run's seed. At most
   32 bytes: one word. *)
let input_of seed = Printf.sprintf "v%016Lx" seed

let setup spec ~seed =
  let cfg = Config.optimal ~n:spec.n in
  let rng = Rng.create seed in
  let victims = List.sort compare (Rng.sample rng spec.f (Pid.all ~n:spec.n)) in
  let traffic =
    match spec.kind with
    | Service ->
      let profile = Option.get (Workload.find_preset traffic_profile) in
      Workload.generate ~seed ~profile ~slots:traffic_slots
    | Weak_ba | Async -> []
  in
  { spec; seed; cfg; victims; traffic; expected_words = None }

(* ---- runs -------------------------------------------------------------- *)

exception Incorrect of string

let fail fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

let agree strs =
  match List.sort_uniq compare strs with
  | [ Some _ ] -> ()
  | _ -> fail "correct processes disagree or did not decide"

let check_words t words =
  match (t.spec.kind, t.spec.f, t.expected_words) with
  | Weak_ba, 0, _ when words <> 16 * (t.spec.n - 1) ->
    fail "words %d, expected 16(n-1) = %d" words (16 * (t.spec.n - 1))
  | _, _, Some w when w <> words -> fail "words %d, first run had %d" words w
  | _, _, None -> t.expected_words <- Some words
  | _ -> ()

let honest () = Adversary.const (Adversary.honest ~name:"honest")

let weak_params t ~seed =
  {
    (Instances.Weak_ba_protocol.default_params t.cfg) with
    inputs = Array.make t.spec.n (input_of seed);
  }

let weak_adversary t =
  if t.victims = [] then honest ()
  else Adversary.const (Adversary.crash ~at:0 ~victims:t.victims ())

let facts_of_outcome (o : _ Instances.agreement_outcome) =
  {
    empty_facts with
    decisions = 1;
    requests = 1;
    words = o.Instances.words;
    messages = o.messages;
    slots = o.slots;
    commit_slots = o.latency;
    crypto = o.crypto;
    signatures = o.signatures;
  }

let check_agreement t (o : _ Instances.agreement_outcome) =
  if o.Instances.status <> Instances.Decided then fail "status is not Decided";
  let correct =
    List.filter (fun p -> not (List.mem p o.corrupted)) (Pid.all ~n:t.spec.n)
  in
  agree (List.map (fun p -> o.decided_strs.(p)) correct)

let fallback_params t ~seed =
  {
    (Instances.Fallback_protocol.default_params t.cfg) with
    inputs = Array.make t.spec.n (input_of seed);
  }

let oracle_fingerprint t ~seed =
  let o =
    Instances.run
      (module Instances.Fallback_protocol)
      ~cfg:t.cfg ~options:(Opts.instances ~seed ~shards:1)
      ~params:(fallback_params t ~seed) ~adversary:(honest ()) ()
  in
  let words = Array.make t.spec.n 0 in
  List.iter
    (fun (r : Meter.row) -> words.(r.ix) <- r.words)
    o.Instances.meter.Meter.per_process;
  { Zoo.decided_strs = o.decided_strs; decided_slots = o.decided_slots; words }

(* How the run's calls into the program are made: plainly, or through the
   tracing wrappers with each call a root span. *)
type mode = Plain | Traced

module Weak_traced = Traced.Make (Instances.Weak_ba_protocol)
module Fallback_traced = Traced.Make (Instances.Fallback_protocol)

(* [f ()], under a root span when traced. *)
let rooted mode label f =
  match mode with Plain -> f () | Traced -> fst (Tracer.root label f)

(* One run, split at the timing boundary: [call t ~mode ~index] sets the
   run up, and applying the result makes the run's calls into the program
   (what the caller times); applying what that returns checks the outcome
   and yields the run's facts, or raises [Incorrect]. *)
let call ?shards t ~mode ~index =
  let seed = run_seed t index in
  let shards = Option.value shards ~default:t.spec.shards in
  match t.spec.kind with
  | Weak_ba ->
    let cfg = t.cfg and options = Opts.instances ~seed ~shards in
    let params = weak_params t ~seed and adversary = weak_adversary t in
    fun () ->
      let o =
        rooted mode "instances.run" (fun () ->
            match mode with
            | Plain ->
              Instances.run (module Instances.Weak_ba_protocol) ~cfg ~options ~params
                ~adversary ()
            | Traced -> Instances.run (module Weak_traced) ~cfg ~options ~params ~adversary ())
      in
      fun () ->
        check_agreement t o;
        check_words t o.words;
        facts_of_outcome o
  | Service ->
    let offset = Throughput.offset_of t.cfg "deep" in
    fun () ->
      let svc = Service.create ~cfg:t.cfg ~offset () in
      rooted mode "service.submit" (fun () -> Service.submit_workload svc t.traffic);
      (* Traced, the engine's own counters report the messages the
         service's internal machines send. *)
      let metrics = match mode with Plain -> None | Traced -> Some (Metrics.create ()) in
      let r =
        rooted mode "service.finalize" (fun () ->
            Service.finalize svc ~seed ~options:(Opts.engine ?metrics ~shards ())
              ~adversary:(honest ()) ())
      in
      let messages =
        match metrics with
        | None -> 0
        | Some reg ->
          Option.value ~default:0
            (List.assoc_opt "engine.messages" (Metrics.snapshot reg).Metrics.counter_values)
      in
      fun () ->
        if r.Service.committed <> r.requests || r.skipped + r.undecided + r.unassigned <> 0
        then fail "service committed %d of %d requests" r.committed r.requests;
        if r.decided_batches <> r.length then
          fail "service decided %d of %d batches" r.decided_batches r.length;
        if Array.exists Option.is_none r.log then fail "log has undecided entries";
        check_words t r.words;
        {
          empty_facts with
          decisions = r.decided_batches;
          requests = r.committed;
          words = r.words;
          messages;
          slots = r.slots;
          commit_slots = r.p99_latency;
          batches = r.length;
          batch_fill = r.batch_fill;
        }
  | Async ->
    let cfg = t.cfg and params = fallback_params t ~seed in
    let codec = Zoo.epk_str_msg in
    fun () ->
      let o =
        rooted mode "runtime.run" (fun () ->
            match mode with
            | Plain -> Runtime.run (module Instances.Fallback_protocol) ~codec ~cfg ~seed ~params ()
            | Traced -> Runtime.run (module Fallback_traced) ~codec ~cfg ~seed ~params ())
      in
      fun () ->
        if o.Runtime.failures <> [] then fail "a runtime domain died";
        if o.stalled <> [] then fail "the runtime stalled";
        agree (Array.to_list o.decided_strs);
        let async =
          { Zoo.decided_strs = o.decided_strs; decided_slots = o.decided_slots; words = o.words }
        in
        (match Zoo.fingerprint_diff ~oracle:(oracle_fingerprint t ~seed) ~async with
        | [] -> ()
        | diff -> fail "async differs from the oracle: %s" (String.concat "; " diff));
        let words = Array.fold_left ( + ) 0 o.words in
        check_words t words;
        {
          empty_facts with
          decisions = 1;
          requests = 1;
          words;
          messages = Array.fold_left ( + ) 0 o.messages;
          slots = o.slots;
          commit_slots =
            Array.fold_left (fun m d -> max m (Option.value d ~default:0)) 0 o.decided_slots;
          wire = Some o.stats;
        }
