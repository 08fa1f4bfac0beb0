(* A deliberately naive reference for [Engine.run], written from the model
   (DESIGN §1): every slot rebuilds every inbox from cons lists, steps every
   correct process, then the rushing adversary, and posts everything. It
   shares no code with the engine's slot loop, so [test_engine_diff] holds
   both step policies against it. Reliable network only: no fault plans,
   shards, monitors, profiling or metrics. *)

open Mewc_prelude
open Mewc_sim

(* Returns the run's trace, meter and final states. *)
let run ~cfg ~shuffle_seed ~decided ~words ~horizon ~protocol ~adversary =
  let n = cfg.Config.n in
  let rng = Option.map Rng.create shuffle_seed in
  let machines = Array.init n protocol in
  let states = Array.map (fun m -> m.Process.init) machines in
  let corrupted = Array.make n false and f = ref 0 in
  let meter = Meter.create () and trace = Trace.create ~enabled:true in
  let emit = Trace.record trace in
  let next_id = ref 0 in
  (* [pending.(p)]: (id, envelope) pairs for [p]'s next inbox, newest first. *)
  let pending = Array.make n [] and decisions = Array.make n None in
  for slot = 0 to horizon - 1 do
    Meter.begin_slot meter ~slot;
    emit (Trace.Slot_start slot);
    let delivered =
      Array.map (fun l -> match rng with None -> List.rev l | Some r -> Rng.shuffle r l) pending
    in
    Array.fill pending 0 n [];
    let ids = Array.map (List.map fst) delivered in
    let inboxes = Array.map (List.map snd) delivered in
    let view correct_outgoing =
      { Adversary.slot; cfg; states = lazy (Array.copy states); correct_outgoing;
        corrupted = lazy (Array.copy corrupted); inboxes = lazy (Array.copy inboxes) }
    in
    List.iter
      (fun p ->
        if not corrupted.(p) then begin
          if !f >= cfg.Config.t then invalid_arg "Ref_engine: budget exceeded";
          corrupted.(p) <- true;
          incr f;
          emit (Trace.Corruption { slot; pid = p; f = !f })
        end)
      (adversary.Adversary.corrupt (view []));
    let correct = List.filter (fun p -> not corrupted.(p)) (Pid.all ~n) in
    let sends_of p out = List.map (fun (msg, dst) -> (p, msg, dst)) out in
    let correct_sends =
      List.concat_map
        (fun p ->
          let state, out = machines.(p).Process.step ~slot ~inbox:inboxes.(p) states.(p) in
          states.(p) <- state;
          sends_of p out)
        correct
    in
    List.iter
      (fun p ->
        match decided states.(p) with
        | Some value when decisions.(p) <> Some value ->
          decisions.(p) <- Some value;
          emit (Trace.Decision { slot; pid = p; value; parents = ids.(p) })
        | _ -> ())
      correct;
    let envelope (src, msg, dst) = { Envelope.src; dst; sent_at = slot; msg } in
    let byz_view = view (List.map envelope correct_sends) in
    let byz_sends =
      List.concat_map
        (fun p -> sends_of p (adversary.Adversary.byz_step ~pid:p byz_view))
        (List.filter (fun p -> corrupted.(p)) (Pid.all ~n))
    in
    List.iter
      (fun ((src, msg, dst) as send) ->
        let byzantine = corrupted.(src) and words = words msg and id = !next_id in
        let charged = Meter.charge meter ~byzantine ~src ~dst ~words in
        incr next_id;
        let envelope = envelope send in
        emit
          (Trace.Send
             { id; envelope; byzantine_sender = byzantine; words; charged; parents = ids.(src) });
        pending.(dst) <- (id, envelope) :: pending.(dst))
      (correct_sends @ byz_sends)
  done;
  (trace, meter, states)
