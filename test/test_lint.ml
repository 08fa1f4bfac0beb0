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

let rec sources ?(suffixes = [ ".ml" ]) dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' then []
         else if Sys.is_directory path then sources ~suffixes path
         else if List.exists (Filename.check_suffix entry) suffixes then [ path ]
         else [])

let lib_has_no_partial_printers () =
  let files = sources "../lib" in
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

(* ---- dead modules ------------------------------------------------------

   A [lib/] module no other compilation unit names is dead code. Names come
   from the AST's [Longident]s, so a comment or a string naming a module
   does not keep it alive. *)

let rec components acc = function
  | Longident.Lident s -> s :: acc
  | Ldot (l, s) -> components (s :: acc) l
  | Lapply (a, b) -> components (components acc a) b

let unit_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The source file's unit name, and the names its AST mentions. *)
let unit_names ~file source =
  let names = Hashtbl.create 64 in
  let add { Location.txt; _ } =
    List.iter (fun s -> Hashtbl.replace names s ()) (components [] txt)
  in
  let on ids hook it x =
    List.iter add (ids x);
    hook it x
  in
  let exprs e =
    match e.pexp_desc with
    | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l) | Pexp_new l -> [ l ]
    | Pexp_record (fs, _) -> List.map fst fs
    | _ -> []
  and pats p =
    match p.ppat_desc with
    | Ppat_construct (l, _) | Ppat_type l | Ppat_open (l, _) -> [ l ]
    | Ppat_record (fs, _) -> List.map fst fs
    | _ -> []
  and typs t =
    match t.ptyp_desc with
    | Ptyp_constr (l, _) | Ptyp_class (l, _) | Ptyp_package (l, _) -> [ l ]
    | _ -> []
  and mods m = match m.pmod_desc with Pmod_ident l -> [ l ] | _ -> []
  and mtys m = match m.pmty_desc with Pmty_ident l | Pmty_alias l -> [ l ] | _ -> [] in
  let d = Ast_iterator.default_iterator in
  let it =
    { d with expr = on exprs d.expr; pat = on pats d.pat; typ = on typs d.typ;
      module_expr = on mods d.module_expr; module_type = on mtys d.module_type;
      open_description = on (fun o -> [ o.popen_expr ]) d.open_description }
  in
  if Filename.check_suffix file ".mli" then
    it.signature it (Parse.interface (Lexing.from_string source))
  else it.structure it (parse ~file source);
  (unit_name file, names)

(* The [lib] units that no unit but their own [.ml]/[.mli] names. *)
let dead_units ~lib units =
  List.filter
    (fun m -> not (List.exists (fun (u, names) -> u <> m && Hashtbl.mem names m) units))
    lib

let lib_has_no_dead_modules () =
  let units =
    [ "../lib"; "../bin"; "../bench"; "."; "../examples"; "../perfbench" ]
    |> List.concat_map (sources ~suffixes:[ ".ml"; ".mli" ])
    |> List.map (fun file -> unit_names ~file (read file))
  in
  let lib = List.map unit_name (sources "../lib") in
  Alcotest.(check bool) "found the other units" true (List.length units > 2 * List.length lib);
  Alcotest.(check (list string)) "lib modules no other unit names" [] (dead_units ~lib units)

let lint_catches_planted_dead_modules () =
  [
    ("alive.ml", "let x = 1");
    ("user.ml", "open Typed\nlet y = Alive.x\ntype t = Viatype.t");
    ("ghost.ml", "let z = 2");
    ("talker.ml", {|(* Ghost.z *) let w = "Ghost.z"|});
    ("selfish.mli", "type t\nval f : Selfish.t -> unit");
    ("typed.ml", "let t = 0");
  ]
  |> List.map (fun (file, source) -> unit_names ~file source)
  |> dead_units ~lib:[ "Alive"; "Ghost"; "Selfish"; "Typed"; "Viatype" ]
  |> Alcotest.(check (list string)) "dead" [ "Ghost"; "Selfish" ]

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
      ( "dead modules",
        [
          Alcotest.test_case "every lib module is named elsewhere" `Quick
            lib_has_no_dead_modules;
          Alcotest.test_case "lint catches planted dead modules" `Quick
            lint_catches_planted_dead_modules;
        ] );
    ]
