(* The benchmark's own tests: its tracing wrappers change nothing the
   program computes, its span accounting is exact, its counts repeat, and
   its allocation counter sees every domain. *)

open Mewc_perfbench
module W = Workloads

let spec ?(n = 101) ?(f = 0) ?(shards = 1) kind =
  { W.name = "test"; kind; n; f; shards; warmups = 1 }

let fail fmt = Printf.ksprintf failwith fmt

(* The facts a wrapped run must reproduce exactly. *)
let fingerprint (x : W.facts) =
  (x.decisions, x.requests, x.words, x.messages, x.slots, x.commit_slots, x.signatures)

let run ?shards t ~mode ~index =
  let _, finish = Sample.take (W.call ?shards t ~mode ~index) in
  finish ()

let wrapper_changes_nothing () =
  List.iter
    (fun (label, spec) ->
      let t = W.setup spec ~seed:7L in
      for index = 0 to 1 do
        let plain = run t ~mode:W.Plain ~index and traced = run t ~mode:W.Traced ~index in
        if fingerprint plain <> fingerprint traced then fail "%s: the traced run differs" label
      done)
    [
      ("weak-ba failure-free", spec W.Weak_ba);
      ("weak-ba crash, two shards", spec ~f:50 ~shards:2 W.Weak_ba);
      ("async fallback", spec ~n:3 W.Async);
    ]

(* The async check compares decisions and per-process words with an
   [Instances.run] oracle itself; here the traced and plain runs must agree
   on the wire too. *)
let async_wire_unchanged () =
  let t = W.setup (spec ~n:3 W.Async) ~seed:3L in
  let frames (x : W.facts) =
    Option.map (fun (s : W.Runtime.stats) -> (s.frames_sent, s.bytes_sent)) x.wire
  in
  if frames (run t ~mode:W.Plain ~index:0) <> frames (run t ~mode:W.Traced ~index:0) then
    fail "traced async run sent different frames"

let counts_repeat () =
  let t = W.setup (spec ~f:50 W.Weak_ba) ~seed:11L in
  let counts index =
    Tracer.roots := [];
    ignore (run t ~mode:W.Traced ~index);
    match !Tracer.roots with
    | [ r ] -> (r.Tracer.step_calls, r.polls, r.wakes, r.sends)
    | _ -> fail "expected one root span per run"
  in
  if counts 0 <> counts 1 then fail "step, wake or send counts differ between runs"

let union_is_exact () =
  let cases =
    [
      ([], 0);
      ([ (0, 10) ], 10);
      ([ (0, 10); (5, 15) ], 15);
      ([ (20, 30); (0, 10); (2, 4) ], 20);
      ([ (0, 10); (10, 20) ], 20);
    ]
  in
  List.iter
    (fun (xs, want) ->
      let got = Tracer.union_ns xs in
      if got <> want then fail "union_ns = %d, want %d" got want)
    cases

(* Self time plus covered time is the root's whole duration, and a child
   recorded on another domain is attributed to the open root. *)
let spans_tile_the_root () =
  let (), r =
    Tracer.root "test" (fun () ->
        let t0 = Tracer.now_ns () in
        Domain.join (Domain.spawn (fun () -> Tracer.record Tracer.Step t0 (t0 + 1000)));
        Tracer.record Tracer.Init t0 (t0 + 500))
  in
  if r.Tracer.step_calls <> 1 || r.step_ns <> 1000 || r.init_ns <> 500 then
    fail "children were not attributed to the root";
  if r.covered_ns <> 1000 then fail "covered %d ns, want 1000" r.covered_ns;
  if Tracer.self_ns r + r.covered_ns <> r.stop - r.start then fail "self + covered <> duration"

(* Allocation on the crash workload agrees within 2% at one and two
   shards: the counter sees the helper domain's allocation too. *)
let alloc_sees_every_domain () =
  let crash = Option.get (W.find "weak-crash-401") in
  let t = W.setup crash ~seed:5L in
  let alloc shards =
    let s, finish = Sample.take (W.call ~shards t ~mode:W.Plain ~index:0) in
    ignore (finish ());
    s.Sample.minor_words
  in
  ignore (alloc 2);
  let one = alloc 1 and two = alloc 2 in
  if Float.abs (two -. one) > 0.02 *. one then
    fail "minor words at shards 2 (%.0f) differ from shards 1 (%.0f) by more than 2%%" two one

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n%!" name)
    [
      ("wrapper changes nothing", wrapper_changes_nothing);
      ("async wire unchanged", async_wire_unchanged);
      ("counts repeat", counts_repeat);
      ("union is exact", union_is_exact);
      ("spans tile the root", spans_tile_the_root);
      ("allocation sees every domain", alloc_sees_every_domain);
    ]
