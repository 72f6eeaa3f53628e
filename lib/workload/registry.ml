(* Experiment registry: NNN-slug.md frontmatter parsing and the coherence
   checks over entries, BENCH artifacts, and the documentation indexes.
   Everything is pure over an env of read callbacks and deterministically
   ordered, matching the repo's two-runs-are-byte-identical convention. *)

type status = Draft | Running | Complete | Superseded
type regen = Gate | Diff | No_regen

type entry = {
  id : int;
  slug : string;
  file : string;
  title : string;
  status : status;
  anchor : string;
  roadmap : string;
  index_tag : string option;
  hypothesis : string;
  reproduce : string;
  smoke : string option;
  regen : regen;
  artifact : string option;
  artifact_keys : string list;
  json_check : string option;
  body : string;
}

type t = { entries : entry list }
type violation = { file : string option; what : string }

let status_name = function
  | Draft -> "Draft"
  | Running -> "Running"
  | Complete -> "Complete"
  | Superseded -> "Superseded"

let status_of_string = function
  | "Draft" -> Ok Draft
  | "Running" -> Ok Running
  | "Complete" -> Ok Complete
  | "Superseded" -> Ok Superseded
  | s -> Error (Printf.sprintf "unknown status %S (Draft | Running | Complete | Superseded)" s)

let regen_name = function Gate -> "gate" | Diff -> "diff" | No_regen -> "none"

let regen_of_string = function
  | "gate" -> Ok Gate
  | "diff" -> Ok Diff
  | "none" -> Ok No_regen
  | s -> Error (Printf.sprintf "unknown regen mode %S (gate | diff | none)" s)

(* ---------- filename and frontmatter parsing ---------- *)

let basename file =
  match String.rindex_opt file '/' with
  | None -> file
  | Some i -> String.sub file (i + 1) (String.length file - i - 1)

let is_slug_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* "NNN-slug.md" -> slug, or an explanation of the naming convention. *)
let slug_of_basename base =
  let bad () =
    Error
      (Printf.sprintf "file name %S is not NNN-slug.md (three digits, dash, lowercase slug)" base)
  in
  if String.length base < 7 || not (String.ends_with ~suffix:".md" base) then bad ()
  else
    let digits = String.sub base 0 3 in
    if not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then bad ()
    else if base.[3] <> '-' then bad ()
    else
      let slug = String.sub base 4 (String.length base - 7) in
      if slug = "" || not (String.for_all is_slug_char slug) then bad () else Ok slug

let trim = String.trim

let split_key_value line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "frontmatter line %S is not \"key: value\"" line)
  | Some i ->
      let key = trim (String.sub line 0 i) in
      let value = trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if key = "" then Error (Printf.sprintf "frontmatter line %S has an empty key" line)
      else Ok (key, value)

let known_keys =
  [
    "id"; "title"; "status"; "anchor"; "roadmap"; "index"; "hypothesis"; "reproduce"; "smoke";
    "regen"; "artifact"; "artifact_keys"; "json_check";
  ]

let parse ~file contents =
  let ( let* ) = Result.bind in
  let* slug = slug_of_basename (basename file) in
  match String.split_on_char '\n' contents with
  | "---" :: rest -> (
      let rec split_front acc = function
        | [] -> Error "unterminated frontmatter (no closing \"---\")"
        | "---" :: body -> Ok (List.rev acc, body)
        | line :: tl -> split_front (line :: acc) tl
      in
      let* front, body_lines = split_front [] rest in
      let* fields =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            if trim line = "" then Ok acc
            else
              let* key, value = split_key_value line in
              if not (List.mem key known_keys) then
                Error
                  (Printf.sprintf "unknown frontmatter key %S (known: %s)" key
                     (String.concat ", " known_keys))
              else if List.mem_assoc key acc then
                Error (Printf.sprintf "duplicate frontmatter key %S" key)
              else Ok ((key, value) :: acc))
          (Ok []) front
      in
      let find key = List.assoc_opt key fields in
      let required key =
        match find key with
        | None -> Error (Printf.sprintf "missing required frontmatter key %S" key)
        | Some "" -> Error (Printf.sprintf "frontmatter key %S must not be empty" key)
        | Some v -> Ok v
      in
      let optional key = match find key with None | Some "" -> None | Some v -> Some v in
      let* id_str = required "id" in
      let* id =
        match int_of_string_opt id_str with
        | Some id when id >= 1 -> Ok id
        | _ -> Error (Printf.sprintf "id %S is not a positive integer" id_str)
      in
      let* title = required "title" in
      let* status = Result.bind (required "status") status_of_string in
      let* anchor = required "anchor" in
      let* roadmap = required "roadmap" in
      let* hypothesis = required "hypothesis" in
      let* reproduce = required "reproduce" in
      let* regen =
        match find "regen" with None | Some "" -> Ok Gate | Some v -> regen_of_string v
      in
      let artifact = optional "artifact" in
      let artifact_keys =
        match optional "artifact_keys" with
        | None -> []
        | Some keys -> String.split_on_char ',' keys |> List.map trim |> List.filter (( <> ) "")
      in
      Ok
        {
          id;
          slug;
          file;
          title;
          status;
          anchor;
          roadmap;
          index_tag = optional "index";
          hypothesis;
          reproduce;
          smoke = optional "smoke";
          regen;
          artifact;
          artifact_keys;
          json_check = optional "json_check";
          body = String.concat "\n" body_lines;
        })
  | _ -> Error "missing frontmatter (the file must open with a \"---\" line)"

let front_matter_of e =
  let b = Buffer.create 256 in
  let line key value = Buffer.add_string b (Printf.sprintf "%s: %s\n" key value) in
  let opt key = function None -> () | Some v -> line key v in
  Buffer.add_string b "---\n";
  line "id" (string_of_int e.id);
  line "title" e.title;
  line "status" (status_name e.status);
  line "anchor" e.anchor;
  line "roadmap" e.roadmap;
  opt "index" e.index_tag;
  line "hypothesis" e.hypothesis;
  line "reproduce" e.reproduce;
  opt "smoke" e.smoke;
  line "regen" (regen_name e.regen);
  opt "artifact" e.artifact;
  (match e.artifact_keys with
  | [] -> ()
  | keys -> line "artifact_keys" (String.concat ", " keys));
  opt "json_check" e.json_check;
  Buffer.add_string b "---\n";
  Buffer.contents b

(* ---------- loading ---------- *)

let of_sources sources =
  let entries, violations =
    List.fold_left
      (fun (entries, violations) (file, contents) ->
        match parse ~file contents with
        | Ok e -> (e :: entries, violations)
        | Error what -> (entries, { file = Some file; what } :: violations))
      ([], []) sources
  in
  let entries =
    List.sort (fun a b -> if a.id <> b.id then compare a.id b.id else compare a.file b.file) entries
  in
  ({ entries }, List.rev violations)

let is_entry_file base =
  String.ends_with ~suffix:".md" base
  && (not (String.starts_with ~prefix:"_" base))
  && base <> "README.md"

let load ~root =
  let dir = Filename.concat root "experiments" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    ({ entries = [] }, [ { file = None; what = Printf.sprintf "no experiments/ directory under %s" root } ])
  else
    let files = Sys.readdir dir |> Array.to_list |> List.filter is_entry_file |> List.sort compare in
    let sources =
      List.map
        (fun base ->
          let contents = In_channel.with_open_text (Filename.concat dir base) In_channel.input_all in
          ("experiments/" ^ base, contents))
        files
    in
    of_sources sources

(* ---------- verification ---------- *)

type env = { read_file : string -> string option; list_root : unit -> string list }

let repo_env ~root =
  {
    read_file =
      (fun rel ->
        let path = Filename.concat root rel in
        if Sys.file_exists path && not (Sys.is_directory path) then
          Some (In_channel.with_open_text path In_channel.input_all)
        else None);
    list_root =
      (fun () ->
        if Sys.file_exists root && Sys.is_directory root then
          Sys.readdir root |> Array.to_list |> List.sort compare
        else []);
  }

let tokens_of command =
  String.split_on_char ' ' command |> List.map trim |> List.filter (( <> ) "")

(* The executable targets a command may name, mapped to the source file
   whose existence proves the target is still real. *)
let exe_source token =
  let token =
    match String.index_opt token '/' with
    | Some _ when String.starts_with ~prefix:"./_build/default/" token ->
        String.sub token 17 (String.length token - 17)
    | _ -> token
  in
  if not (String.ends_with ~suffix:".exe" token) then None
  else
    match String.split_on_char '/' token with
    | [ dir; exe ] when List.mem dir [ "bench"; "bin"; "examples" ] ->
        Some (token, Filename.concat dir (Filename.chop_suffix exe ".exe" ^ ".ml"))
    | _ -> None

let check_command ~env ~cli_subcommands ~what command =
  let tokens = tokens_of command in
  match List.filter_map exe_source tokens with
  | [] -> [ Printf.sprintf "%s command %S names no bench/bin/examples executable target" what command ]
  | targets ->
      let missing =
        List.filter_map
          (fun (token, source) ->
            if env.read_file source = None then
              Some (Printf.sprintf "%s command names %s but %s does not exist" what token source)
            else None)
          targets
      in
      let stale_subcommand =
        if List.exists (fun (token, _) -> Filename.basename token = "intersect_cli.exe") targets
        then
          (* The first token after the "--" separator is the subcommand. *)
          let rec after_dashes = function
            | [] -> None
            | "--" :: next :: _ -> Some next
            | _ :: tl -> after_dashes tl
          in
          match after_dashes tokens with
          | None -> [ Printf.sprintf "%s command drives intersect_cli without a subcommand" what ]
          | Some sub when not (List.mem sub cli_subcommands) ->
              [
                Printf.sprintf "%s command uses stale intersect_cli subcommand %S (known: %s)" what
                  sub
                  (String.concat ", " cli_subcommands);
              ]
          | Some _ -> []
        else []
      in
      missing @ stale_subcommand

let check_artifact ~env ~cli_subcommands e =
  match e.artifact with
  | None ->
      if e.artifact_keys <> [] || e.json_check <> None then
        [ "artifact_keys/json_check declared without an artifact" ]
      else []
  | Some artifact -> (
      match env.read_file artifact with
      | None -> [ Printf.sprintf "artifact %s does not exist" artifact ]
      | Some contents -> (
          match Stats.Json.of_string contents with
          | Error msg -> [ Printf.sprintf "artifact %s is not valid JSON: %s" artifact msg ]
          | Ok doc ->
              let missing_keys =
                List.filter_map
                  (fun key ->
                    if Stats.Json.member key doc = None then
                      Some (Printf.sprintf "artifact %s lacks declared key %S" artifact key)
                    else None)
                  e.artifact_keys
              in
              let schema =
                match e.json_check with
                | None -> []
                | Some mode when not (List.mem mode Schemas.bench_modes) ->
                    [
                      Printf.sprintf "json_check mode %S is not a bench schema (known: %s)" mode
                        (String.concat ", " Schemas.bench_modes);
                    ]
                | Some mode -> (
                    match Schemas.check ~mode doc with
                    | Ok () -> []
                    | Error msg ->
                        [ Printf.sprintf "artifact %s fails json_check --%s: %s" artifact mode msg ])
              in
              (* The command an artifact embeds must stay as runnable as the
                 entry's own. *)
              let reproduce =
                match Option.bind (Stats.Json.member "reproduce" doc) Stats.Json.to_string_opt with
                | None -> []
                | Some command ->
                    check_command ~env ~cli_subcommands
                      ~what:(Printf.sprintf "artifact %s reproduce" artifact)
                      command
              in
              missing_keys @ schema @ reproduce))

(* Extract experiments/*.md references from an index document.  A
   reference is a maximal run of path characters starting at
   "experiments/"; only .md paths count. *)
let index_references contents =
  let is_path_char c = is_slug_char c || c = '/' || c = '.' || c = '_' || (c >= 'A' && c <= 'Z') in
  let n = String.length contents in
  let needle = "experiments/" in
  let rec scan acc i =
    if i >= n then List.rev acc
    else if i + String.length needle <= n && String.sub contents i (String.length needle) = needle
    then begin
      let j = ref i in
      while !j < n && is_path_char contents.[!j] do
        incr j
      done;
      let path = String.sub contents i (!j - i) in
      let acc = if String.ends_with ~suffix:".md" path then path :: acc else acc in
      scan acc !j
    end
    else scan acc (i + 1)
  in
  scan [] 0 |> List.sort_uniq compare

let verify ~env ~cli_subcommands { entries } =
  let entry_violation (e : entry) what = { file = Some e.file; what } in
  let global what = { file = None; what } in
  (* Dense, unique ids. *)
  let dense =
    List.mapi
      (fun i e ->
        if e.id <> i + 1 then
          Some
            (entry_violation e
               (Printf.sprintf "id %d breaks the dense 1..%d numbering (expected %d)" e.id
                  (List.length entries) (i + 1)))
        else None)
      entries
    |> List.filter_map Fun.id
  in
  (* Per-entry checks, in id order. *)
  let per_entry =
    List.concat_map
      (fun e ->
        let expected = Printf.sprintf "experiments/%03d-%s.md" e.id e.slug in
        let naming =
          if e.file <> expected then
            [ Printf.sprintf "file name does not match id %d (expected %s)" e.id expected ]
          else []
        in
        let commands =
          if e.status = Superseded then []
          else
            check_command ~env ~cli_subcommands ~what:"reproduce" e.reproduce
            @
            match e.smoke with
            | None -> []
            | Some smoke -> check_command ~env ~cli_subcommands ~what:"smoke" smoke
        in
        let artifact = if e.status = Superseded then [] else check_artifact ~env ~cli_subcommands e in
        let regen =
          match e.status, e.smoke, e.regen with
          | Complete, None, (Gate | Diff) ->
              [
                "Complete entry has no smoke command for the regen gate (add smoke: ... or opt \
                 out with regen: none)";
              ]
          | _ -> []
        in
        List.map (entry_violation e) (naming @ commands @ artifact @ regen))
      entries
  in
  (* Every committed BENCH artifact is claimed by a live entry. *)
  let claims =
    env.list_root ()
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && String.ends_with ~suffix:".json" f)
    |> List.filter_map (fun bench ->
           if
             List.exists (fun e -> e.status <> Superseded && e.artifact = Some bench) entries
           then None
           else Some (global (Printf.sprintf "%s is claimed by no live experiment entry" bench)))
  in
  (* EXPERIMENTS.md <-> experiments/ <-> README.md cross-links. *)
  let index_links =
    match env.read_file "EXPERIMENTS.md" with
    | None -> [ global "EXPERIMENTS.md does not exist" ]
    | Some index ->
        let referenced = index_references index in
        let files = List.map (fun (e : entry) -> e.file) entries in
        let unlisted =
          List.filter_map
            (fun (e : entry) ->
              if List.mem e.file referenced then None
              else Some (entry_violation e "not referenced by the EXPERIMENTS.md index"))
            entries
        in
        let dangling =
          List.filter_map
            (fun path ->
              if
                List.mem path files
                || path = "experiments/README.md"
                || String.starts_with ~prefix:"experiments/_" path
              then None
              else Some (global (Printf.sprintf "EXPERIMENTS.md references missing %s" path)))
            referenced
        in
        unlisted @ dangling
  in
  let readme_links =
    match env.read_file "README.md" with
    | None -> [ global "README.md does not exist" ]
    | Some readme ->
        if index_references readme <> [] ||
           (let rec contains i =
              i + 12 <= String.length readme
              && (String.sub readme i 12 = "experiments/" || contains (i + 1))
            in
            contains 0)
        then []
        else [ global "README.md never points into experiments/" ]
  in
  dense @ per_entry @ claims @ index_links @ readme_links

let regen_plan { entries } =
  List.fold_left
    (fun plan e ->
      match (e.status, e.smoke, e.regen) with
      | Complete, Some smoke, ((Gate | Diff) as mode) -> (
          match List.assoc_opt smoke (List.map (fun (c, m, ids) -> (c, (m, ids))) plan) with
          | Some _ ->
              List.map
                (fun (c, m, ids) -> if c = smoke then (c, m, ids @ [ e.id ]) else (c, m, ids))
                plan
          | None -> plan @ [ (smoke, mode, [ e.id ]) ])
      | _ -> plan)
    [] entries

(* ---------- export ---------- *)

let entry_json e =
  let module J = Stats.Json in
  let opt = function None -> J.Null | Some s -> J.Str s in
  J.Obj
    [
      ("id", J.Int e.id);
      ("file", J.Str e.file);
      ("slug", J.Str e.slug);
      ("title", J.Str e.title);
      ("status", J.Str (status_name e.status));
      ("anchor", J.Str e.anchor);
      ("roadmap", J.Str e.roadmap);
      ("index", opt e.index_tag);
      ("hypothesis", J.Str e.hypothesis);
      ("reproduce", J.Str e.reproduce);
      ("smoke", opt e.smoke);
      ("regen", J.Str (regen_name e.regen));
      ("artifact", opt e.artifact);
      ("artifact_keys", J.List (List.map (fun k -> J.Str k) e.artifact_keys));
      ("json_check", opt e.json_check);
    ]

let to_json { entries } =
  Stats.Json.Obj
    [
      ("registry", Stats.Json.Str "experiments");
      ("count", Stats.Json.Int (List.length entries));
      ("entries", Stats.Json.List (List.map entry_json entries));
    ]

let export t = Stats.Json.to_string_pretty (to_json t) ^ "\n"

let census { entries } =
  let count s = List.length (List.filter (fun e -> e.status = s) entries) in
  (count Draft, count Running, count Complete, count Superseded)

let table { entries } =
  let t =
    Stats.Table.create ~title:"experiments"
      ~columns:[ "id"; "status"; "anchor"; "artifact"; "title" ]
  in
  List.iter
    (fun e ->
      Stats.Table.add_row t
        [
          Printf.sprintf "%03d" e.id;
          status_name e.status;
          e.anchor;
          Option.value e.artifact ~default:"-";
          e.title;
        ])
    entries;
  t
