(** Typed, schema-gated loaders for the four committed benchmark artifacts.

    [mewc report] never reads in-memory structures from the code that wrote
    the artifacts: everything is re-parsed from disk through these loaders,
    so the report can only show what the files actually say, and a
    malformed, missing, or wrong-schema artifact is a load [Error] rather
    than a silently empty figure. *)

val load_ledger : string -> (Mewc_core.Ledger.entry list, string) result
(** A [mewc-ledger/1] file. Unlike {!Mewc_core.Ledger.load}, a missing file
    is an error here — the report's artifact set is closed. *)

type thr_report = {
  slots : int;
  words : int;
  requests : int;
  committed : int;
  decided_batches : int;
  batch_fill : float;
  words_per_decision : float;
  decisions_per_1k_slots : float;
  p50_latency : int;
  p99_latency : int;
}

type thr_cell = {
  cell_n : int;
  workload : string;
  depth : string;
  report : thr_report;
}

type slo_point = {
  fault_profile : string;
  level : int;
  slo_decisions_per_1k : float;
  slo_committed : int;
  slo_undecided : int;
  slo_p99 : int;
  retention : float;
}

type throughput_entry = {
  thr_rev : string;
  thr_date : string;
  cells : thr_cell list;
  slo : slo_point list;
}

val load_throughput : string -> (throughput_entry list, string) result
(** A [mewc-throughput/1] file. *)

type degrade_cell = {
  dg_protocol : string;
  fault : string;
  level : int;
  verdict : string;  (** "safe-live" | "safe-stalled" | "unsafe" *)
  dg_f : int;
  dg_faulty : int;
  dg_undecided : int;
  dg_words : int;
  dg_slots : int;
}

type degrade = {
  dg_n : int;
  dg_t : int;
  dg_protocols : string list;
  faults : string list;
  levels : int;
  dg_cells : degrade_cell list;
}

val load_degrade : string -> (degrade, string) result
(** A [mewc-degrade/1] matrix. *)

type slot_sample = {
  slot : int;
  slot_words : int;
  slot_messages : int;
  slot_byz_words : int;
  slot_byz_messages : int;
}

type obs_run = {
  ob_protocol : string;
  ob_n : int;
  ob_t : int;
  ob_f_spec : string;
  ob_f : int;
  ob_words : int;
  ob_messages : int;
  ob_latency : int;
  ob_slots : int;
  correct_words : int;
  correct_messages : int;
  byz_words : int;
  byz_messages : int;
  per_slot : slot_sample list;
}

val load_observability : string -> (obs_run list, string) result
(** A [mewc-observability/1] file (each run's meter gated on
    [mewc-meter/1]). *)

type artifacts = {
  ledger : Mewc_core.Ledger.entry list;
  throughput : throughput_entry list;
  degrade : degrade;
  observability : obs_run list;
}

val ledger_file : string
val throughput_file : string
val degrade_file : string
val observability_file : string
(** The conventional artifact filenames ([BENCH_*.json]). *)

val load_all : dir:string -> (artifacts, string) result
(** All four artifacts from [dir], failing on the first broken one. *)
