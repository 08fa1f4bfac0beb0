module Jsonx = Mewc_prelude.Jsonx

type cell = {
  mutable words : int;
  mutable messages : int;
  mutable byz_words : int;
  mutable byz_messages : int;
}

let fresh_cell () = { words = 0; messages = 0; byz_words = 0; byz_messages = 0 }

type t = {
  totals : cell;
  mutable current_slot : int;
  mutable max_slot : int;  (* highest slot begun; -1 before any *)
  per_slot : (int, cell) Hashtbl.t;
  per_process : (int, cell) Hashtbl.t;
}

let create () =
  {
    totals = fresh_cell ();
    current_slot = 0;
    max_slot = -1;
    per_slot = Hashtbl.create 64;
    per_process = Hashtbl.create 16;
  }

let begin_slot m ~slot =
  m.current_slot <- slot;
  if slot > m.max_slot then m.max_slot <- slot

let cell_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = fresh_cell () in
    Hashtbl.add tbl key c;
    c

let add_to c ~byzantine ~words =
  if byzantine then begin
    c.byz_words <- c.byz_words + words;
    c.byz_messages <- c.byz_messages + 1
  end
  else begin
    c.words <- c.words + words;
    c.messages <- c.messages + 1
  end

let charge m ~byzantine ~src ~dst ~words =
  if words < 1 then invalid_arg "Meter.charge: each message is at least 1 word";
  if src = dst then false (* self-addressed: crosses no link, free *)
  else begin
    if m.current_slot > m.max_slot then m.max_slot <- m.current_slot;
    add_to m.totals ~byzantine ~words;
    add_to (cell_of m.per_slot m.current_slot) ~byzantine ~words;
    add_to (cell_of m.per_process src) ~byzantine ~words;
    true
  end

let correct_words m = m.totals.words
let correct_messages m = m.totals.messages
let byzantine_words m = m.totals.byz_words
let byzantine_messages m = m.totals.byz_messages

let reset m =
  m.totals.words <- 0;
  m.totals.messages <- 0;
  m.totals.byz_words <- 0;
  m.totals.byz_messages <- 0;
  m.current_slot <- 0;
  m.max_slot <- -1;
  Hashtbl.reset m.per_slot;
  Hashtbl.reset m.per_process

type row = {
  ix : int;
  words : int;
  messages : int;
  byz_words : int;
  byz_messages : int;
}

type snapshot = {
  correct_words : int;
  correct_messages : int;
  byz_words : int;
  byz_messages : int;
  per_slot : row list;
  per_process : row list;
}

let row_of ix (c : cell) =
  {
    ix;
    words = c.words;
    messages = c.messages;
    byz_words = c.byz_words;
    byz_messages = c.byz_messages;
  }

let zero_row ix = { ix; words = 0; messages = 0; byz_words = 0; byz_messages = 0 }

let snapshot m =
  let per_slot =
    List.init (m.max_slot + 1) (fun slot ->
        match Hashtbl.find_opt m.per_slot slot with
        | Some c -> row_of slot c
        | None -> zero_row slot)
  in
  let per_process =
    Hashtbl.fold (fun pid c acc -> row_of pid c :: acc) m.per_process []
    |> List.sort (fun a b -> Int.compare a.ix b.ix)
  in
  {
    correct_words = m.totals.words;
    correct_messages = m.totals.messages;
    byz_words = m.totals.byz_words;
    byz_messages = m.totals.byz_messages;
    per_slot;
    per_process;
  }

let row_to_json key r =
  Jsonx.Obj
    [
      (key, Jsonx.Int r.ix);
      ("words", Jsonx.Int r.words);
      ("messages", Jsonx.Int r.messages);
      ("byz_words", Jsonx.Int r.byz_words);
      ("byz_messages", Jsonx.Int r.byz_messages);
    ]

let snapshot_to_json s =
  Jsonx.Schema.tag "mewc-meter/1"
    [
      ("correct_words", Jsonx.Int s.correct_words);
      ("correct_messages", Jsonx.Int s.correct_messages);
      ("byz_words", Jsonx.Int s.byz_words);
      ("byz_messages", Jsonx.Int s.byz_messages);
      ("per_slot", Jsonx.Arr (List.map (row_to_json "slot") s.per_slot));
      ("per_process", Jsonx.Arr (List.map (row_to_json "pid") s.per_process));
    ]

let pp fmt m =
  Format.fprintf fmt "correct: %d words / %d msgs; byzantine: %d words / %d msgs"
    m.totals.words m.totals.messages m.totals.byz_words m.totals.byz_messages
