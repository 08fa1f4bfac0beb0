(* The differential gate behind the engine's step policies and sharding:
   for the same seed, options and fault plan, every (scheduler, shards)
   pair must be observationally equivalent to the `Legacy sequential run —
   byte-identical mewc-trace/4 traces, identical decisions, word/message
   counts and monitor verdicts. Three batteries: the protocol zoo over a
   sweep-style grid, the fuzzer's adversary scenarios, and the chaos
   fault-plan profiles; each case runs under both policies at shards in
   {1, 2, 4}. Since both policies share one slot loop, every fault-free
   case is also checked against [Ref_engine], an independent naive loop. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core
open Mewc_fuzz

let cfg9 = Config.optimal ~n:9
let cfg13 = Config.optimal ~n:13

(* One run, reduced to a byte string. The trace carries every send/delivery/
   decision (payloads rendered), so byte equality of fingerprints is the
   paper-trail version of observational equivalence. *)
let outcome_fingerprint (o : _ Instances.agreement_outcome) =
  let b = Buffer.create 4096 in
  let ids ps = String.concat "," (List.map string_of_int ps) in
  Printf.ksprintf (Buffer.add_string b)
    "f=%d words=%d messages=%d byz_words=%d signatures=%d slots=%d latency=%d \
     fallback_runs=%d nonsilent=%d help=%d\n"
    o.Instances.f o.Instances.words o.Instances.messages o.Instances.byz_words
    o.Instances.signatures o.Instances.slots o.Instances.latency
    o.Instances.fallback_runs o.Instances.nonsilent_phases
    o.Instances.help_requests;
  Printf.ksprintf (Buffer.add_string b) "corrupted=%s faulty=%s status=%s\n"
    (ids o.Instances.corrupted) (ids o.Instances.faulty)
    (match o.Instances.status with
    | Instances.Decided -> "decided"
    | Instances.Undecided ps -> "undecided:" ^ ids ps);
  Array.iter
    (fun d -> Buffer.add_char b (match d with Some _ -> '1' | None -> '0'))
    o.Instances.decisions;
  Buffer.add_char b '\n';
  (match o.Instances.trace_json with
  | Some j -> Buffer.add_string b (Jsonx.to_string j)
  | None -> Buffer.add_string b "<no trace>");
  Buffer.contents b

(* A run either completes or a monitor fires; both outcomes must agree
   across schedulers. *)
let observe f =
  match f () with
  | o -> outcome_fingerprint o
  | exception Monitor.Violation { monitor; slot; reason } ->
    Printf.sprintf "violation monitor=%s slot=%d reason=%s" monitor slot reason

(* The fingerprint deliberately excludes [crypto] (cache hit/miss splits):
   per-domain memo tables legitimately move hits between domains as the
   shard count changes. Everything else — signature *counts* included —
   must be invariant. *)
let check_equiv name run =
  let base = observe (fun () -> run `Legacy 1) in
  List.iter
    (fun (scheduler, shards) ->
      let label =
        Printf.sprintf "%s [%s shards=%d]" name
          (Engine.scheduler_to_string scheduler)
          shards
      in
      Alcotest.(check string) label base (observe (fun () -> run scheduler shards)))
    [
      (`Event_driven, 1);
      (`Legacy, 2);
      (`Event_driven, 2);
      (`Legacy, 4);
      (`Event_driven, 4);
    ]

(* Both policies at shards 1 and 2 against [Ref_engine]: trace JSON, correct
   and byzantine words, and the printed decisions. *)
let check_ref (type p s m d) label ((module P) : (p, s, m, d) Protocol.t) ~cfg
    ~params ~seed ~shuffle_seed ~adversary =
  let horizon = P.horizon ~cfg ~params and decided = P.decided_str in
  let run engine =
    let pki, secrets = Mewc_crypto.Pki.setup ~seed ~n:cfg.Config.n () in
    let protocol pid = P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid in
    let trace, meter, states = engine ~protocol ~adversary:(adversary ~pki ~secrets) in
    let decision st = Option.value ~default:"-" (decided st) in
    Printf.sprintf "%s\nwords=%d byz_words=%d decided=%s"
      (Jsonx.to_string (Trace.to_json ~encode:P.encode_msg trace))
      (Meter.correct_words meter) (Meter.byzantine_words meter)
      (String.concat "," (List.map decision (Array.to_list states)))
  in
  let expected = run (Ref_engine.run ~cfg ~shuffle_seed ~decided ~words:P.words ~horizon) in
  List.iter
    (fun (scheduler, shards) ->
      let options =
        { Engine.default_options with
          record_trace = true; shuffle_seed; decided = Some decided; scheduler; shards }
      in
      let engine ~protocol ~adversary =
        let o = Engine.run ~cfg ~options ~words:P.words ~horizon ~protocol ~adversary () in
        (o.Engine.trace, o.meter, o.states)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s [reference vs %s shards=%d]" label
           (Engine.scheduler_to_string scheduler) shards)
        expected (run engine))
    [ (`Legacy, 1); (`Event_driven, 1); (`Legacy, 2); (`Event_driven, 2) ]

(* ---- battery 1: the protocol zoo over a sweep-style grid --------------- *)

let diff_grid_target (Campaign.Target { name; protocol; params; ablated = _ }) =
  List.iter
    (fun cfg ->
      List.iter
        (fun f ->
          List.iter
            (fun shuffle_seed ->
              let adversary =
                Adversary.const
                  (Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ())
              in
              let label =
                Printf.sprintf "%s n=%d f=%d shuffle=%s" name cfg.Config.n f
                  (match shuffle_seed with
                  | Some s -> Int64.to_string s
                  | None -> "-")
              in
              check_equiv label (fun scheduler shards ->
                  Instances.run protocol ~cfg
                    ~options:
                      {
                        Instances.default_options with
                        Instances.seed = 1L;
                        shuffle_seed;
                        record_trace = true;
                        scheduler;
                        shards;
                      }
                    ~params:(params cfg) ~adversary ());
              check_ref label protocol ~cfg ~params:(params cfg) ~seed:1L
                ~shuffle_seed ~adversary)
            [ None; Some 42L ])
        [ 0; 1; cfg.Config.t ])
    [ cfg9; cfg13 ]

let grid_cases () =
  List.iter
    (fun target ->
      if not (Campaign.target_ablated target) then diff_grid_target target)
    Campaign.zoo

(* ---- battery 2: the fuzzer's adversary zoo ----------------------------- *)

let diff_scenarios (Campaign.Target { name; protocol; params; ablated }) =
  let cfg = cfg9 in
  let rng = Rng.create 0xD1FFL in
  for i = 0 to 5 do
    let scenario = Scenario.generate ~cfg ~rng in
    let label = Format.asprintf "%s scenario %d (%a)" name i Scenario.pp scenario in
    check_equiv label (fun scheduler shards ->
        let params = params cfg in
        Instances.run protocol ~cfg
          ~options:
            {
              Instances.default_options with
              Instances.seed = scenario.Scenario.seed;
              shuffle_seed = scenario.Scenario.shuffle;
              record_trace = true;
              scheduler;
              shards;
              monitors = Some (Campaign.safety_monitors ~cfg ~ablated);
              faults = Compile.plan_of_scenario scenario;
            }
          ~params
          ~adversary:(Compile.adversary protocol ~cfg ~params scenario)
          ());
    if Faults.is_none (Compile.plan_of_scenario scenario) then begin
      let params = params cfg in
      check_ref label protocol ~cfg ~params ~seed:scenario.Scenario.seed
        ~shuffle_seed:scenario.Scenario.shuffle
        ~adversary:(Compile.adversary protocol ~cfg ~params scenario)
    end
  done

let fuzz_cases () = List.iter diff_scenarios Campaign.zoo

(* ---- battery 3: chaos-profile fault plans ------------------------------ *)

let chaos_cases () =
  List.iter
    (fun target ->
      if not (Campaign.target_ablated target) then begin
        let (Campaign.Target { name; protocol; params; ablated = _ }) = target in
        List.iter
          (fun profile ->
            List.iter
              (fun level ->
                let cfg = Degrade.cfg in
                let plan = Degrade.plan_of ~profile ~level in
                let label = Printf.sprintf "%s chaos %s@%d" name profile level in
                check_equiv label (fun scheduler shards ->
                    Instances.run protocol ~cfg
                      ~options:
                        {
                          Instances.default_options with
                          Instances.seed =
                            Degrade.seed_of ~protocol:name ~profile ~level;
                          record_trace = true;
                          scheduler;
                          shards;
                          faults = plan;
                        }
                      ~params:(params cfg)
                      ~adversary:
                        (Adversary.const (Adversary.crash ~victims:[] ()))
                      ()))
              [ 1; Degrade.levels - 1 ])
          Degrade.profiles
      end)
    Campaign.zoo

(* ---- domain safety of trace encoding ----------------------------------

   [Pool] workers encode traces concurrently (the chaos matrix, sharded
   sweeps), so a protocol's [encode_msg] must not share a formatter across
   domains. Two domains encode the same recorded trace at once, over and
   over; every rendering must equal the sequential one. *)

let concurrent_trace_encoding () =
  List.iter
    (fun (Campaign.Target { name; protocol = (module P); params; ablated = _ }) ->
      let cfg = cfg9 in
      let params = params cfg in
      let pki, secrets = Mewc_crypto.Pki.setup ~seed:1L ~n:cfg.Config.n () in
      let res =
        Engine.run ~cfg
          ~options:{ Engine.default_options with record_trace = true }
          ~words:P.words ~horizon:(P.horizon ~cfg ~params)
          ~protocol:(fun pid ->
            P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid)
          ~adversary:(Adversary.crash ~victims:[ 1; 2 ] ()) ()
      in
      let encode () =
        Jsonx.to_string (Trace.to_json ~encode:P.encode_msg res.Engine.trace)
      in
      let sequential = encode () in
      let ready = Atomic.make 0 in
      let worker () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        List.init 10 (fun _ ->
            match encode () with s -> Ok s | exception e -> Error e)
      in
      let d1 = Domain.spawn worker in
      let d2 = Domain.spawn worker in
      List.iteri
        (fun i r ->
          match r with
          | Ok s ->
            Alcotest.(check bool)
              (Printf.sprintf "%s concurrent encode %d == sequential" name i)
              true (String.equal s sequential)
          | Error e ->
            Alcotest.failf "%s concurrent encode %d raised %s" name i
              (Printexc.to_string e))
        (Domain.join d1 @ Domain.join d2))
    Campaign.zoo

let () =
  Alcotest.run "engine-diff"
    [
      ( "scheduler equivalence",
        [
          Alcotest.test_case "protocol zoo x sweep grid" `Quick grid_cases;
          Alcotest.test_case "fuzzer adversary scenarios" `Quick fuzz_cases;
          Alcotest.test_case "chaos fault plans" `Quick chaos_cases;
        ] );
      ( "domain safety",
        [
          Alcotest.test_case "concurrent trace encoding" `Quick
            concurrent_trace_encoding;
        ] );
    ]
