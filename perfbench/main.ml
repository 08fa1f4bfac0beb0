(* The benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   Runs the named workload as a closed loop for S seconds, checks every
   run, and prints every metric by name with its unit; the last line of
   stdout is one JSON object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones, measured with tracing
   off; with --trace 1 they are the per-layer ones, from a separate traced
   loop (see README.md). The full result, with its provenance, is also
   written under .perfbench/. Exits 1 if any run was incorrect,
   2 on a usage error. *)

open Mewc_perfbench
module W = Workloads

(* ---- small statistics --------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [p]% of samples at or
   below it. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

(* The highest-ranked sample with at least ten samples above it, clamped
   to the lowest when there are ten or fewer, so the figure does not jump
   as the sample count crosses eleven. Returns (value, 1-based rank). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let i = max 0 (Array.length a - 11) in
  if a = [||] then (0., 0) else (a.(i), i + 1)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* ---- measuring one run ---------------------------------------------------- *)

type run = { sample : Sample.t; facts : W.facts }

let attempted = ref 0
let failures = ref 0

(* Every timing sample, for the result file. *)
let samples : (string * float list) list ref = ref []

(* ---- CPU placement -------------------------------------------------------- *)

(* The host's CPUs need not run at the same speed (another tenant may share
   one), and a run on one domain stays on whichever CPU it starts on. So
   such a run is pinned to CPU [index mod k] of the k CPUs the process may
   use, and a timing batch holds whole rounds of k runs: every sample sees
   every CPU equally. Runs on several domains (two shards, the async
   runtime) use every CPU and are not pinned. *)
let all_cpus = Affinity.cpus ()

let pins spec ~shards = spec.W.kind <> W.Async && shards = 1 && List.length all_cpus > 1

(* Runs per round over the CPUs. *)
let round spec = if pins spec ~shards:spec.W.shards then List.length all_cpus else 1

let on_cpu spec ~shards ~index f =
  if not (pins spec ~shards) then f ()
  else begin
    let k = List.length all_cpus in
    ignore (Affinity.set_cpus [ List.nth all_cpus (((index mod k) + k) mod k) ]);
    Fun.protect ~finally:(fun () -> ignore (Affinity.set_cpus all_cpus)) f
  end

(* One checked run; [None] if it was incorrect (counted and reported). *)
let measure ?shards t ~mode ~index =
  incr attempted;
  let spec = t.W.spec in
  match
    on_cpu spec ~shards:(Option.value shards ~default:spec.W.shards) ~index (fun () ->
        let sample, finish = Sample.take (W.call ?shards t ~mode ~index) in
        { sample; facts = finish () })
  with
  | r -> Some r
  | exception e ->
    incr failures;
    let why = match e with W.Incorrect why -> why | e -> Printexc.to_string e in
    Printf.eprintf "run %d incorrect: %s\n%!" index why;
    None

(* ---- set-up --------------------------------------------------------------- *)

(* One set-up: the workload's inputs from the seed, a trusted setup at its
   n, and the workload's warm-up runs on each CPU it pins to (pools
   spawned, caches and heap grown), which are checked but not measured. Repeated; [setup_s] is the
   median. Also returns the peak major heap after the first set-up, in MB:
   a fixed amount of work, so the figure does not grow with the number of
   runs a loop fits in. *)
let setup_rounds = 3

let set_up spec ~seed =
  let heap_mb = ref 0. in
  let rounds =
    List.init setup_rounds (fun k ->
        let w0 = Tracer.now_ns () in
        let t = W.setup spec ~seed in
        ignore (Mewc_crypto.Pki.setup ~seed:(W.run_seed t (-k - 1)) ~n:spec.W.n ());
        let warmups = spec.W.warmups * round spec in
        for i = 1 to warmups do
          ignore (measure t ~mode:W.Plain ~index:(-(k * warmups) - i));
          decr attempted
        done;
        let elapsed = float (Tracer.now_ns () - w0) *. 1e-9 in
        if k = 0 then
          heap_mb :=
            float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
        (t, elapsed))
  in
  (fst (List.hd rounds), median (List.map snd rounds), !heap_mb)

(* ---- output --------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
         ms)
  ^ "}"

(* ---- end-to-end ------------------------------------------------------------ *)

(* The host's speed wanders from run to run, so one timing sample is a
   batch of back-to-back runs lasting at least [batch_s] and holding whole
   rounds over the CPUs: the mean run time in the batch. Medians are taken
   over batches. Runs left over after the last batch are dropped, unless
   the loop was too short to fill one: then they are the batch. The tail is
   taken over single runs, which are more numerous. *)
let batch_s = 0.5

let batches ~per runs =
  let rec go acc n wall = function
    | [] -> []
    | r :: rest ->
      let acc = r :: acc and n = n + 1 and wall = wall +. r.sample.Sample.wall in
      if wall >= batch_s && n mod per = 0 then List.rev acc :: go [] 0 0. rest
      else go acc n wall rest
  in
  match go [] 0 0. runs with [] when runs <> [] -> [ runs ] | bs -> bs

let end_to_end spec ~seed ~seconds =
  let t, setup_s, heap_mb = set_up spec ~seed in
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let runs = ref [] and index = ref 0 in
  while Tracer.now_ns () < deadline do
    Option.iter (fun r -> runs := r :: !runs) (measure t ~mode:W.Plain ~index:!index);
    incr index
  done;
  let runs = List.rev !runs in
  let total get rs = sum (fun r -> float (get r.facts)) rs in
  let wall rs = sum (fun r -> r.sample.Sample.wall) rs in
  let decisions rs = total (fun x -> x.W.decisions) rs in
  let bs = batches ~per:(round spec) runs in
  let per_batch f = List.map f bs in
  let run_s = per_batch (fun b -> wall b /. float (List.length b)) in
  let tail_v, tail_rank = tail (List.map (fun r -> r.sample.Sample.wall) runs) in
  Printf.printf "run_s_tail is rank %d of %d runs (p%.0f); %d batches\n" tail_rank
    (List.length runs)
    (100. *. float tail_rank /. float (max 1 (List.length runs)))
    (List.length bs);
  let all_decisions = decisions runs in
  samples :=
    [ ("run_s", List.map (fun r -> r.sample.Sample.wall) runs); ("batch_run_s", run_s) ];
  [
    m "run_s_p50" "s" (median run_s);
    m "run_s_tail" "s" tail_v;
    m "decisions_per_s" "1/s" (median (per_batch (fun b -> ratio (decisions b) (wall b))));
    m "requests_per_s" "1/s"
      (median (per_batch (fun b -> ratio (total (fun x -> x.W.requests) b) (wall b))));
    m "words_per_decision" "words" (ratio (total (fun x -> x.W.words) runs) all_decisions);
    m "alloc_mw_per_decision" "Mw"
      (ratio (sum (fun r -> r.sample.Sample.minor_words) runs /. 1e6) all_decisions);
    m "cpu_s_per_decision" "s"
      (median (per_batch (fun b -> ratio (sum (fun r -> r.sample.Sample.cpu) b) (decisions b))));
    m "heap_peak_mb" "MB" heap_mb;
    m "commit_p99_slots" "slots"
      (percentile 99. (List.map (fun r -> float r.facts.W.commit_slots) runs));
    m "decisions_per_1k_slots" "1/kslot"
      (ratio (1000. *. all_decisions) (total (fun x -> x.W.slots) runs));
    m "setup_s" "s" setup_s;
  ]

(* ---- per-layer ------------------------------------------------------------ *)

(* The band [trace.unattributed_frac] must stay in: the share of the traced
   loop's wall time spent outside every root span (set-up of each call,
   correctness checks, merging the span buffers). *)
let unattributed_band = (0., 0.25)

(* Runs of the async runtime in one traced loop. *)
let runtime_runs = 50

let per_layer spec ~seed ~seconds =
  (* Micro loops first, so their figures do not depend on what the
     workload left in the heap. *)
  let crypto = Micro.crypto ~seed in
  let codec = Micro.codec ~seed in
  let roundtrip_us = Micro.transport_roundtrip_us () in
  let noop_ns = Micro.noop_slot_ns ~seed in
  (* The async runtime: traced runs of the fallback at n=3, checked against
     the oracle like any run. *)
  let async = W.setup W.async_fallback ~seed in
  Tracer.roots := [];
  let async_runs =
    List.filter_map (fun index -> measure async ~mode:W.Traced ~index) (List.init runtime_runs Fun.id)
  in
  let async_roots = !Tracer.roots in
  let t, _, _ = set_up spec ~seed in
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  (* A plain and a traced run of one index, on the same CPU. *)
  let plain = ref [] and traced = ref [] and overheads = ref [] and roots = ref [] in
  let window = ref 0 and index = ref 0 in
  while Tracer.now_ns () < deadline do
    let p = measure t ~mode:W.Plain ~index:!index in
    Option.iter (fun r -> plain := r :: !plain) p;
    let w0 = Tracer.now_ns () in
    Tracer.roots := [];
    (match measure t ~mode:W.Traced ~index:!index with
    | Some r ->
      traced := r :: !traced;
      roots := !Tracer.roots :: !roots;
      Option.iter
        (fun p -> overheads := (r.sample.Sample.wall /. p.sample.Sample.wall) -. 1. :: !overheads)
        p
    | None -> ());
    window := !window + (Tracer.now_ns () - w0);
    incr index
  done;
  (* The Pool: timed workloads run on one domain, so a few more runs at two
     shards (sync workloads only) give its speedup and CPU use. *)
  let pooled =
    match spec.W.kind with
    | W.Async -> []
    | W.Weak_ba | W.Service ->
      List.filter_map (fun i -> measure ~shards:2 t ~mode:W.Plain ~index:(!index + i)) [ 0; 1 ]
  in
  let wall xs = sum (fun r -> r.sample.Sample.wall) xs in
  let mean_wall xs = ratio (wall xs) (float (List.length xs)) in
  let tr = !traced and runs = float (List.length !traced) in
  let per_run get = ratio (sum get tr) runs in
  let fact get = per_run (fun s -> float (get s.facts)) in
  let all_roots = List.concat !roots in
  let by label = List.filter (fun r -> r.Tracer.label = label) all_roots in
  let engine_roots = by "instances.run" in
  let root_sum get rs = List.fold_left (fun acc r -> acc +. float (get r)) 0. rs in
  let eng get = ratio (root_sum get engine_roots) runs in
  let ns = 1e-9 in
  let step_calls = eng (fun r -> r.Tracer.step_calls) in
  let step_s = eng (fun r -> r.Tracer.step_ns) *. ns in
  let polls = eng (fun r -> r.Tracer.polls) in
  let c get = fact (fun f -> get f.W.crypto) in
  let verify_hits = c (fun c -> c.Mewc_crypto.Pki.verify_hits)
  and verify_misses = c (fun c -> c.Mewc_crypto.Pki.verify_misses)
  and agg_hits = c (fun c -> c.Mewc_crypto.Pki.agg_hits)
  and agg_misses = c (fun c -> c.Mewc_crypto.Pki.agg_misses)
  and signatures = fact (fun f -> f.W.signatures) in
  let wire get =
    ratio
      (sum (fun r -> float (match r.facts.W.wire with Some w -> get w | None -> 0)) async_runs)
      (float (List.length async_runs))
  in
  let in_roots = root_sum Tracer.duration_ns all_roots in
  let unattributed = 1. -. ratio in_roots (float !window) in
  let lo, hi = unattributed_band in
  if not (unattributed >= lo && unattributed <= hi) then begin
    incr failures;
    Printf.eprintf "trace.unattributed_frac %.4f outside its band [%.2f, %.2f]\n%!" unattributed lo hi
  end;
  (* Counts must repeat exactly across the traced runs of one seed. *)
  let distinct rs get = List.length (List.sort_uniq compare (List.map get rs)) in
  let repeat rs =
    distinct rs (fun r -> r.Tracer.step_calls) <= 1
    && distinct rs (fun r -> r.Tracer.polls) <= 1
    && distinct rs (fun r -> r.Tracer.sends) <= 1
  in
  if not (repeat engine_roots && repeat async_roots) then begin
    incr failures;
    prerr_endline "traced runs of one seed disagree on step, wake or send counts"
  end;
  let service = by "service.finalize" and submits = by "service.submit" in
  let service_runs = float (List.length service) in
  [
    m "engine.wake_polls" "count" polls;
    m "engine.wake_hit_ratio" "ratio" (ratio (eng (fun r -> r.Tracer.wakes)) polls);
    m "engine.self_s" "s" (eng Tracer.self_ns *. ns);
    m "engine.slots" "count" (fact (fun f -> f.W.slots));
    m "engine.messages" "count" (fact (fun f -> f.W.messages));
    m "engine.noop_slot_ns" "ns" noop_ns;
    m "proto.step_calls" "count" step_calls;
    m "proto.step_s" "s" step_s;
    m "proto.step_ns" "ns" (ratio step_s step_calls /. ns);
    m "proto.init_s" "s" (eng (fun r -> r.Tracer.init_ns) *. ns);
    m "proto.sends" "count" (eng (fun r -> r.Tracer.sends));
    m "crypto.sha256_ns" "ns" crypto.sha256_ns;
    m "crypto.hmac_ns" "ns" crypto.hmac_ns;
    m "crypto.sign_ns" "ns" crypto.sign_ns;
    m "crypto.verify_hit_ns" "ns" crypto.verify_hit_ns;
    m "crypto.verify_miss_ns" "ns" crypto.verify_miss_ns;
    m "crypto.tally_add_ns" "ns" crypto.tally_add_ns;
    m "crypto.tsig_verify_ns" "ns" crypto.tsig_verify_ns;
    m "crypto.verify_hits" "count" verify_hits;
    m "crypto.verify_misses" "count" verify_misses;
    m "crypto.agg_hits" "count" agg_hits;
    m "crypto.agg_misses" "count" agg_misses;
    m "crypto.verify_hit_rate" "ratio" (ratio verify_hits (verify_hits +. verify_misses));
    m "crypto.signatures" "count" signatures;
    m "crypto.est_s" "s"
      (ns
      *. ((verify_hits *. crypto.verify_hit_ns)
         +. (verify_misses *. crypto.verify_miss_ns)
         +. (agg_misses *. crypto.tsig_verify_ns)
         +. (signatures *. crypto.sign_ns)));
    m "pool.cpu_per_wall" "ratio" (ratio (sum (fun r -> r.sample.Sample.cpu) pooled) (wall pooled));
    m "pool.speedup" "ratio" (ratio (mean_wall !plain) (mean_wall pooled));
    m "gc.minor_mw" "Mw" (per_run (fun s -> s.sample.Sample.minor_words) /. 1e6);
    m "gc.promoted_mw" "Mw" (per_run (fun s -> s.sample.Sample.promoted_words) /. 1e6);
    m "gc.minor_collections" "count" (per_run (fun s -> float s.sample.Sample.minor_collections));
    m "gc.major_collections" "count" (per_run (fun s -> float s.sample.Sample.major_collections));
    m "service.submit_ns" "ns"
      (ratio (root_sum Tracer.duration_ns submits) (fact (fun f -> f.W.requests) *. runs));
    m "service.finalize_s" "s"
      (ratio (root_sum Tracer.duration_ns service *. ns) service_runs);
    m "service.batches" "count" (fact (fun f -> f.W.batches));
    m "service.batch_fill" "ratio" (per_run (fun s -> s.facts.W.batch_fill));
    m "service.engine_slots" "count" (if service = [] then 0. else fact (fun f -> f.W.slots));
  ]
  @ List.map (fun (k, v) -> m ("codec.encode_ns." ^ k) "ns" v) codec.Micro.encode_ns
  @ List.map (fun (k, v) -> m ("codec.decode_ns." ^ k) "ns" v) codec.Micro.decode_ns
  @ [
      m "codec.frame_encode_ns" "ns" codec.Micro.frame_encode_ns;
      m "codec.scan_ns" "ns" codec.Micro.scan_ns;
      m "transport.roundtrip_us" "us" roundtrip_us;
      m "runtime.run_us" "us"
        (1e6 *. median (List.map (fun r -> r.sample.Sample.wall) async_runs));
      m "runtime.step_calls" "count"
        (ratio (root_sum (fun r -> r.Tracer.step_calls) async_roots) (float (List.length async_roots)));
      m "runtime.frames" "count" (wire (fun w -> w.W.Runtime.frames_sent));
      m "runtime.bytes" "bytes" (wire (fun w -> w.W.Runtime.bytes_sent));
      m "runtime.retries" "count" (wire (fun w -> w.W.Runtime.retries));
      m "runtime.send_timeouts" "count" (wire (fun w -> w.W.Runtime.send_timeouts));
      m "runtime.deadline_expiries" "count" (wire (fun w -> w.W.Runtime.deadline_expiries));
      m "runtime.late_frames" "count" (wire (fun w -> w.W.Runtime.late_frames));
      m "runtime.decode_rejects" "count" (wire (fun w -> w.W.Runtime.decode_rejects));
      m "trace.overhead_frac" "ratio" (median !overheads);
      m "trace.unattributed_frac" "ratio" unattributed;
    ]

(* ---- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0. and trace = ref (-1) in
  let rev = ref "unknown" and out = ".perfbench" in
  let spec_args =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string_opt s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the loop measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rev", Arg.Set_string rev, "REV revision to stamp on the result");
    ]
  in
  let usage () =
    Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
      (String.concat "|" (List.map (fun s -> s.W.name) W.specs));
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec_args (fun _ -> usage ()) "" with Arg.Bad _ | Arg.Help _ -> usage ());
  let spec = match W.find !workload with Some s -> s | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let metrics =
    if traced then per_layer spec ~seed ~seconds:!seconds
    else end_to_end spec ~seed ~seconds:!seconds
  in
  let provenance =
    Printf.sprintf
      "{\"workload\": %S, \"rev\": %S, \"cores\": %d, \"ocaml\": %S, \"scheduler\": %S, \
       \"shards\": %d, \"n\": %d, \"f\": %d, \"seed\": \"%Ld\", \"seconds\": %s, \"traced\": %b}"
      spec.W.name !rev
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (Mewc_sim.Engine.scheduler_to_string W.Opts.scheduler)
      spec.W.shards spec.W.n spec.W.f seed (num !seconds) traced
  in
  List.iter (fun x -> Printf.printf "%-32s %s %s\n" x.name (num x.value) x.unit_) metrics;
  Printf.printf "provenance %s\n" provenance;
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (!failures = 0) !attempted !failures (metrics_json metrics)
  in
  (try
     if not (Sys.file_exists out) then Sys.mkdir out 0o755;
     let base =
       Filename.concat out (Printf.sprintf "%s-seed%Ld-trace%d" spec.W.name seed !trace)
     in
     let oc = open_out (base ^ ".json") in
     let floats xs = "[" ^ String.concat ", " (List.map num xs) ^ "]" in
     Printf.fprintf oc "{\"provenance\": %s, \"result\": %s, \"samples\": {%s}}\n" provenance
       result
       (String.concat ", " (List.map (fun (k, xs) -> Printf.sprintf "%S: %s" k (floats xs)) !samples));
     close_out oc;
     if traced then Tracer.write_csv (base ^ ".spans.csv")
   with Sys_error e -> Printf.eprintf "could not write results: %s\n" e);
  print_endline result;
  exit (if !failures = 0 then 0 else 1)
