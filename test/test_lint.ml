(* Source lint: no module-level partially applied [asprintf].

   [Format.asprintf fmt] allocates its buffer and formatter when it is
   applied to the format, not when the printed value arrives. Bound at
   module level — [let encode_msg = Format.asprintf "%a" pp_msg] — that one
   buffer is shared by every caller on every domain, and concurrent
   callers corrupt each other's output or crash inside [Format]. The fix is
   eta-expansion ([let encode_msg m = Format.asprintf "%a" pp_msg m]). This
   test parses every [.ml] under [lib/] and rejects any [asprintf],
   [kasprintf] or [Fmt.str] application that is evaluated at module
   initialization (outside every function body) with fewer arguments than
   its format literal consumes. *)

open Parsetree

(* Arguments a format literal consumes: one per conversion, two for [%a],
   one more per [*] width or precision. *)
let format_arity fmt =
  let len = String.length fmt in
  let rec conv i stars acc =
    if i >= len then acc
    else
      match fmt.[i] with
      | '*' -> conv (i + 1) (stars + 1) acc
      | '-' | '0' .. '9' | '+' | ' ' | '#' | '.' | '_' -> conv (i + 1) stars acc
      | '%' | '!' | ',' | '@' -> scan (i + 1) acc
      | 'a' -> scan (i + 1) (acc + 2 + stars)
      | 'l' | 'n' | 'L'
        when i + 1 < len && String.contains "diuxXo" fmt.[i + 1] ->
        scan (i + 2) (acc + 1 + stars)
      | _ -> scan (i + 1) (acc + 1 + stars)
  and scan i acc =
    if i >= len then acc
    else if fmt.[i] = '%' then conv (i + 1) 0 acc
    else scan (i + 1) acc
  in
  scan 0 0

(* The number of leading arguments before the format literal. *)
let printer_prefix = function
  | Longident.Lident "asprintf" | Ldot (_, "asprintf") -> Some 0
  | Lident "kasprintf" | Ldot (_, "kasprintf") -> Some 1
  | Ldot (Lident "Fmt", "str") -> Some 0
  | _ -> None

let partial_printers structure =
  let found = ref [] in
  let check e f args =
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match printer_prefix txt with
      | None -> ()
      | Some skip -> (
        match List.nth_opt args skip with
        | Some (_, { pexp_desc = Pexp_constant (Pconst_string (fmt, _, _)); _ })
          ->
          if List.length args - skip - 1 < format_arity fmt then
            found := e.pexp_loc.Location.loc_start.Lexing.pos_lnum :: !found
        | _ -> ()))
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    (* A function body or a lazy value runs per call, never at init. *)
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
    | Pexp_apply (f, args) ->
      check e f args;
      default.expr it e
    | _ -> default.expr it e
  in
  let it = { default with expr } in
  it.structure it structure;
  List.rev !found

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let read file = In_channel.with_open_bin file In_channel.input_all

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let lib_has_no_partial_printers () =
  let files = ml_files "../lib" in
  Alcotest.(check bool) "found the library sources" true (List.length files > 20);
  let offenders =
    List.concat_map
      (fun file ->
        List.map
          (fun line -> Printf.sprintf "%s:%d" file line)
          (partial_printers (parse ~file (read file))))
      files
  in
  Alcotest.(check (list string)) "module-level partial asprintf" [] offenders

(* The lint itself: it flags the shared-buffer shapes and passes the
   per-call ones. *)
let lint_catches_planted_bindings () =
  let lines source = partial_printers (parse ~file:"planted.ml" source) in
  let flagged = Alcotest.(check (list int)) in
  flagged "eta-reduced encoder" [ 1 ]
    (lines {|let encode_msg = Format.asprintf "%a" X.pp_msg|});
  flagged "inside a functor" [ 2 ]
    (lines "module M (X : S) = struct\n  let show = asprintf \"%d-%s\" 3\nend");
  flagged "kasprintf continuation" [ 1 ]
    (lines {|let fail = Format.kasprintf failwith "bad %s"|});
  flagged "hidden under a local let" [ 1 ]
    (lines {|let f = let pr = Format.asprintf "%a" pp in fun x -> pr x|});
  flagged "eta-expanded" [] (lines {|let encode_msg m = Format.asprintf "%a" X.pp_msg m|});
  flagged "partial inside a function body" []
    (lines {|let show st = Option.map (Format.asprintf "%a" pp) st|});
  flagged "fully applied constant" [] (lines {|let s = Format.asprintf "%d%%" 3|})

let () =
  Alcotest.run "lint"
    [
      ( "domain safety",
        [
          Alcotest.test_case "no module-level partial asprintf" `Quick
            lib_has_no_partial_printers;
          Alcotest.test_case "lint catches planted bindings" `Quick
            lint_catches_planted_bindings;
        ] );
    ]
