(* Multi-shot BB: the replicated log. *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let propose pid i = Printf.sprintf "cmd-%d-by-p%d" i pid

let correct_logs (o : Repeated_bb.outcome) =
  Array.to_list o.logs
  |> List.mapi (fun p l -> (p, l))
  |> List.filter (fun (p, _) -> not (List.mem p o.corrupted))

let check_logs_agree o =
  match correct_logs o with
  | [] -> Alcotest.fail "no correct replicas"
  | (_, reference) :: rest ->
    List.iter
      (fun (p, l) ->
        if l <> reference then Alcotest.failf "replica p%d's log diverges" p)
      rest;
    reference

let honest_log () =
  let n = 9 in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:5 ~propose
      ~adversary:(Adversary.const (Adversary.honest ~name:"h"))
      ()
  in
  let log = check_logs_agree o in
  Array.iteri
    (fun i entry ->
      let expected = Repeated_bb.Committed (propose (i mod n) i) in
      match entry with
      | Some e when Repeated_bb.equal_entry e expected -> ()
      | Some e ->
        Alcotest.failf "slot %d: got %s" i (Format.asprintf "%a" Repeated_bb.pp_entry e)
      | None -> Alcotest.failf "slot %d undecided" i)
    log

let byzantine_proposer_skipped () =
  (* The proposer of slot 2 crashes just before its slot: that slot commits
     ⊥ (skipped); all other slots commit their proposers' commands. *)
  let n = 9 in
  let stride = Repeated_bb.stride (cfg n) in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:5 ~propose
      ~adversary:
        (Adversary.const (Adversary.crash ~at:(2 * stride) ~victims:[ 2 ] ()))
      ()
  in
  let log = check_logs_agree o in
  (match log.(2) with
  | Some Repeated_bb.Skipped -> ()
  | Some e ->
    Alcotest.failf "slot 2: expected skip, got %s"
      (Format.asprintf "%a" Repeated_bb.pp_entry e)
  | None -> Alcotest.fail "slot 2 undecided");
  List.iter
    (fun i ->
      match log.(i) with
      | Some (Repeated_bb.Committed v) ->
        Alcotest.(check string) (Printf.sprintf "slot %d" i) (propose (i mod n) i) v
      | _ -> Alcotest.failf "slot %d not committed" i)
    [ 0; 1; 3; 4 ]

let early_crash_tolerated () =
  let n = 9 in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:4 ~propose
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 5; 6 ] ()))
      ()
  in
  let log = check_logs_agree o in
  Array.iteri
    (fun i e ->
      if e = None then Alcotest.failf "slot %d undecided" i)
    log

let words_amortize_linearly () =
  (* The per-slot cost must not grow with the log length: each BB instance
     is independent and adaptive. *)
  let n = 9 in
  let per_slot length =
    let o =
      Repeated_bb.run ~cfg:(cfg n) ~length ~propose
        ~adversary:(Adversary.const (Adversary.honest ~name:"h"))
        ()
    in
    o.Repeated_bb.words_per_slot
  in
  let a = per_slot 2 and b = per_slot 8 in
  Alcotest.(check bool)
    (Printf.sprintf "per-slot cost flat (%.1f vs %.1f)" a b)
    true
    (abs_float (a -. b) /. a < 0.05)

(* ---- pipelining is a scheduling policy, not a protocol change ---------- *)

(* The oracle equality: on the same seed, every pipeline offset must
   produce the same final logs as the sequential schedule, and every
   instance must decide at the same point of its own [stride]-window —
   only the wall-slot placement of the windows moves. *)
let pipelined_logs_match_oracle () =
  let n = 9 in
  let c = cfg n in
  let stride = Repeated_bb.stride c in
  let length = 6 in
  let run ?offset adversary =
    Repeated_bb.run ~cfg:c ~seed:5L ?offset ~length ~propose ~adversary ()
  in
  List.iter
    (fun (name, adversary) ->
      let oracle = run adversary in
      List.iter
        (fun offset ->
          let o = run ~offset adversary in
          if o.Repeated_bb.logs <> oracle.Repeated_bb.logs then
            Alcotest.failf "%s offset=%d: logs diverge from the oracle" name
              offset;
          (* decision slots, re-based to each instance's start, must match
             the oracle's re-based decision slots exactly. *)
          let rebase off (per_proc : int option array array) =
            Array.map
              (Array.mapi (fun i d -> Option.map (fun s -> s - (i * off)) d))
              per_proc
          in
          if
            rebase offset o.Repeated_bb.decided_slots
            <> rebase stride oracle.Repeated_bb.decided_slots
          then
            Alcotest.failf "%s offset=%d: relative decision slots diverge" name
              offset;
          Alcotest.(check int)
            (Printf.sprintf "%s offset=%d horizon" name offset)
            (((length - 1) * offset) + stride)
            o.Repeated_bb.slots)
        [ 1; 2; stride / 2; stride ])
    [
      ("honest", Adversary.const (Adversary.honest ~name:"h"));
      ("crash", Adversary.const (Adversary.crash ~victims:[ 5; 6 ] ()));
    ]

let byzantine_proposer_skipped_at_its_slots_pipelined () =
  (* Round-robin: a proposer crashed from slot 0 skips exactly the log
     slots it owns (i mod n), at any pipeline depth. *)
  let n = 5 in
  let c = cfg n in
  let length = 12 in
  let victim = 2 in
  List.iter
    (fun offset ->
      let o =
        Repeated_bb.run ~cfg:c ~seed:3L ~offset ~length ~propose
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ victim ] ()))
          ()
      in
      let log = check_logs_agree o in
      Array.iteri
        (fun i entry ->
          match (entry, i mod n = victim) with
          | Some Repeated_bb.Skipped, true -> ()
          | Some (Repeated_bb.Committed v), false ->
            Alcotest.(check string)
              (Printf.sprintf "offset=%d slot %d" offset i)
              (propose (i mod n) i) v
          | Some e, _ ->
            Alcotest.failf "offset=%d slot %d: unexpected %s" offset i
              (Format.asprintf "%a" Repeated_bb.pp_entry e)
          | None, _ -> Alcotest.failf "offset=%d slot %d undecided" offset i)
        log)
    [ 1; Repeated_bb.stride c ]

let logs_invariant_under_engine_knobs () =
  (* scheduler × shards must be observationally invisible to the log,
     pipelined or not — same invariant the engine-diff suite proves for
     the one-shot protocols. *)
  let n = 9 in
  let c = cfg n in
  let run ~offset ~scheduler ~shards =
    let o =
      Repeated_bb.run ~cfg:c ~seed:11L ~offset ~length:4 ~propose
        ~options:{ Engine.default_options with Engine.scheduler; shards }
        ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1 ] ()))
        ()
    in
    (o.Repeated_bb.logs, o.Repeated_bb.decided_slots, o.Repeated_bb.words)
  in
  List.iter
    (fun offset ->
      let base = run ~offset ~scheduler:`Legacy ~shards:1 in
      List.iter
        (fun (scheduler, shards) ->
          if run ~offset ~scheduler ~shards <> base then
            Alcotest.failf "offset=%d %s shards=%d diverges" offset
              (Engine.scheduler_to_string scheduler)
              shards)
        [ (`Legacy, 2); (`Event_driven, 1); (`Event_driven, 2) ])
    [ 2; Repeated_bb.stride c ]

(* ---- the instance-level skip against an independent oracle ------------ *)

(* Both schedulers run [Repeated_bb.step], so its instance-level skip is
   invisible to the scheduler-equivalence tests above. The oracle here
   shares none of it: each log index [i] as a standalone adaptive BB under
   the legacy scheduler (which steps every process every slot), with
   sender [i mod n], the same input, cfg and crash-at-0 victims. Entry [i],
   every correct replica's decision slot re-based by [i * offset], and the
   total words must all match. *)
let skip_matches_standalone_bb () =
  List.iter
    (fun (n, crashed) ->
      let c = cfg n in
      let stride = Repeated_bb.stride c in
      let length = n + 2 in
      List.iter
        (fun (name, victims) ->
          let corrupted p = List.mem p victims in
          let adversary () =
            Adversary.const
              (match victims with
              | [] -> Adversary.honest ~name:"h"
              | _ -> Adversary.crash ~victims ())
          in
          let standalone =
            Array.init length (fun i ->
                let sender = i mod n in
                Instances.run
                  (module Instances.Bb_protocol)
                  ~cfg:c
                  ~options:
                    { Instances.default_options with seed = 7L; scheduler = `Legacy }
                  ~params:{ Instances.Bb_protocol.sender; input = propose sender i }
                  ~adversary:(adversary ()) ())
          in
          let oracle_words =
            Array.fold_left (fun acc o -> acc + o.Instances.words) 0 standalone
          in
          List.iter
            (fun offset ->
              let o =
                Repeated_bb.run ~cfg:c ~seed:7L ~offset ~length ~propose
                  ~options:
                    { Engine.default_options with scheduler = `Event_driven }
                  ~adversary:(adversary ()) ()
              in
              let at = Printf.sprintf "n=%d %s offset=%d" n name offset in
              Alcotest.(check int) (at ^ " words") oracle_words o.Repeated_bb.words;
              Array.iteri
                (fun i (bb : Adaptive_bb.decision Instances.agreement_outcome) ->
                  for p = 0 to n - 1 do
                    if not (corrupted p) then begin
                      let expected =
                        match bb.Instances.decisions.(p) with
                        | Some (Adaptive_bb.Decided v) -> Some (Repeated_bb.Committed v)
                        | Some Adaptive_bb.No_decision -> Some Repeated_bb.Skipped
                        | None -> None
                      in
                      if
                        not
                          (Option.equal Repeated_bb.equal_entry expected
                             o.Repeated_bb.logs.(p).(i))
                      then Alcotest.failf "%s: p%d entry %d diverges" at p i;
                      Alcotest.(check (option int))
                        (Printf.sprintf "%s: p%d entry %d decision slot" at p i)
                        bb.Instances.decided_slots.(p)
                        (Option.map
                           (fun s -> s - (i * offset))
                           o.Repeated_bb.decided_slots.(p).(i))
                    end
                  done)
                standalone)
            [ 1; max 1 (stride / 4); stride ])
        [ ("honest", []); ("crash", crashed) ])
    [ (5, [ 2 ]); (9, [ 5; 6 ]) ]

(* ---- stale replay ------------------------------------------------------ *)

(* A corrupted replica that re-sends, unchanged and to the same
   destinations, the correct messages it saw [lag] slots earlier. *)
let stale_replay ~victim ~lag : (Repeated_bb.state, Repeated_bb.msg) Adversary.t =
  let seen = Hashtbl.create 64 in
  {
    Adversary.name = "stale-replay";
    corrupt = (fun v -> if v.Adversary.slot = 0 then [ victim ] else []);
    byz_step =
      (fun ~pid:_ v ->
        let slot = v.Adversary.slot in
        Hashtbl.replace seen slot
          (List.map
             (fun e -> (e.Envelope.msg, e.Envelope.dst))
             v.Adversary.correct_outgoing);
        match Hashtbl.find_opt seen (slot - lag) with
        | None -> []
        | Some sends ->
          Hashtbl.remove seen (slot - lag);
          sends);
  }

(* Envelopes replayed [2 * stride] slots late address instances that have
   left every replica's window. They must change nothing — the logs and
   decision slots equal the crash-only run's — and they must not be kept:
   the final states are no larger than the crash-only run's. *)
let stale_replay_dropped () =
  let n = 5 in
  let c = cfg n in
  let stride = Repeated_bb.stride c in
  let offset = max 1 (stride / 4) in
  let length = 12 in
  let victim = 1 in
  let run adversary =
    let pki, secrets = Mewc_crypto.Pki.setup ~seed:3L ~n () in
    let res =
      Engine.run ~cfg:c
        ~options:{ Engine.default_options with scheduler = `Event_driven }
        ~words:Repeated_bb.words
        ~horizon:(Repeated_bb.horizon ~offset c ~length)
        ~protocol:(fun pid ->
          {
            Process.init =
              Repeated_bb.init ~cfg:c ~pki ~secret:secrets.(pid) ~pid ~length
                ~offset ~propose:(propose pid) ();
            step = Repeated_bb.step;
            wake = Some Repeated_bb.wake;
          })
        ~adversary ()
    in
    let correct = List.filter (fun p -> p <> victim) (List.init n Fun.id) in
    let states = List.map (fun p -> res.Engine.states.(p)) correct in
    ( List.map Repeated_bb.log states,
      List.map Repeated_bb.decided_slots states,
      Obj.reachable_words (Obj.repr states) )
  in
  let crash_logs, crash_slots, crash_size =
    run (Adversary.crash ~victims:[ victim ] ())
  in
  let logs, slots, size = run (stale_replay ~victim ~lag:(2 * stride)) in
  if logs <> crash_logs then Alcotest.fail "stale replay changed a correct log";
  if slots <> crash_slots then
    Alcotest.fail "stale replay moved a correct decision slot";
  if size > crash_size then
    Alcotest.failf "stale replay left %d words parked in correct replicas"
      (size - crash_size)

let () =
  Alcotest.run "repeated BB (replicated log)"
    [
      ( "log",
        [
          Alcotest.test_case "honest log" `Quick honest_log;
          Alcotest.test_case "byzantine proposer skipped" `Quick
            byzantine_proposer_skipped;
          Alcotest.test_case "crashes tolerated" `Quick early_crash_tolerated;
          Alcotest.test_case "per-slot cost flat" `Slow words_amortize_linearly;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "pipelined logs == oracle" `Quick
            pipelined_logs_match_oracle;
          Alcotest.test_case "byzantine proposer skipped at its slots" `Quick
            byzantine_proposer_skipped_at_its_slots_pipelined;
          Alcotest.test_case "invariant under scheduler x shards" `Quick
            logs_invariant_under_engine_knobs;
          Alcotest.test_case "skip == standalone BB oracle" `Quick
            skip_matches_standalone_bb;
          Alcotest.test_case "stale replay dropped" `Quick stale_replay_dropped;
        ] );
    ]
