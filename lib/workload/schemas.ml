(* One named checker per committed JSON artifact, shared by
   `intersect_cli check` and the experiment registry, so "the artifact
   passes its json_check mode" runs the exact same code path on the
   command line and inside `experiments verify`.  The bench modes hold no
   field logic here: each dispatches to the harness that writes the
   artifact, which decodes it, re-derives its verdict and re-renders it. *)

module J = Stats.Json

(* Decode, re-judge, and for reports with derived fields (sweep,
   telemetry) compare the stored fields with their re-rendered
   recomputation.  Chaos and hotpath reports store only raw fields. *)
let rejudge ?render ~decode ~violations doc =
  Result.bind (decode doc) (fun v ->
      match Option.bind render (fun render -> J.diff ~expected:(render v) doc) with
      | Some d -> Error d
      | None -> ( match violations v with [] -> Ok () | first :: _ -> Error first))

let check_lint_report doc =
  if Option.bind (J.member "tool" doc) J.to_string_opt <> Some "intersect-lint" then
    Error "missing \"tool\": \"intersect-lint\" marker"
  else
    let int_field name = Option.bind (J.member name doc) J.to_int_opt in
    match (int_field "files", int_field "typed_modules", int_field "count") with
    | None, _, _ -> Error "missing \"files\""
    | _, None, _ -> Error "missing \"typed_modules\""
    | _, _, None -> Error "missing \"count\""
    | Some files, Some typed_modules, Some count -> (
        if files < 1 then Error "files must be >= 1"
        else if typed_modules < 0 then Error "negative typed_modules"
        else
          match Option.bind (J.member "findings" doc) J.to_list_opt with
          | None -> Error "missing \"findings\" list"
          | Some findings ->
              if List.length findings <> count then
                Error
                  (Printf.sprintf "count %d does not match %d finding(s)" count
                     (List.length findings))
              else
                let check_finding i f =
                  let where msg = Printf.sprintf "finding %d: %s" i msg in
                  let str name = Option.bind (J.member name f) J.to_string_opt in
                  let int name = Option.bind (J.member name f) J.to_int_opt in
                  match (str "rule", str "file", int "line", int "col", str "message") with
                  | None, _, _, _, _ -> Error (where "missing \"rule\"")
                  | _, None, _, _, _ -> Error (where "missing \"file\"")
                  | _, _, None, _, _ -> Error (where "missing \"line\"")
                  | _, _, _, None, _ -> Error (where "missing \"col\"")
                  | _, _, _, _, None -> Error (where "missing \"message\"")
                  | Some rule, Some file, Some line, Some col, Some message ->
                      if rule = "" || file = "" || message = "" then
                        Error (where "empty rule/file/message")
                      else if line < 1 || col < 0 then
                        Error (where "line must be >= 1 and col >= 0")
                      else Ok ()
                in
                List.to_seq findings
                |> Seq.fold_lefti
                     (fun acc i f -> match acc with Error _ -> acc | Ok () -> check_finding i f)
                     (Ok ()))

let check_lint_sarif doc =
  if Option.bind (J.member "version" doc) J.to_string_opt <> Some "2.1.0" then
    Error "missing \"version\": \"2.1.0\""
  else if J.member "$schema" doc = None then Error "missing \"$schema\""
  else
    match Option.bind (J.member "runs" doc) J.to_list_opt with
    | Some [ run ] -> (
        let driver = Option.bind (J.member "tool" run) (J.member "driver") in
        match Option.bind driver (fun d -> Option.bind (J.member "name" d) J.to_string_opt) with
        | Some "intersect-lint" -> (
            let rule_ids =
              Option.bind driver (fun d -> Option.bind (J.member "rules" d) J.to_list_opt)
              |> Option.value ~default:[]
              |> List.filter_map (fun r -> Option.bind (J.member "id" r) J.to_string_opt)
            in
            if rule_ids = [] then Error "empty driver rule catalogue"
            else
              match Option.bind (J.member "results" run) J.to_list_opt with
              | None -> Error "missing \"results\" list"
              | Some results ->
                  let check_result i r =
                    let where msg = Printf.sprintf "result %d: %s" i msg in
                    let location =
                      match Option.bind (J.member "locations" r) J.to_list_opt with
                      | Some [ l ] -> J.member "physicalLocation" l
                      | _ -> None
                    in
                    let region = Option.bind location (J.member "region") in
                    let region_int name =
                      Option.bind region (fun rg -> Option.bind (J.member name rg) J.to_int_opt)
                    in
                    match Option.bind (J.member "ruleId" r) J.to_string_opt with
                    | None -> Error (where "missing \"ruleId\"")
                    | Some rule when not (List.mem rule rule_ids) ->
                        Error (where (Printf.sprintf "ruleId %S not in the catalogue" rule))
                    | Some _ ->
                        if Option.bind (J.member "level" r) J.to_string_opt <> Some "error" then
                          Error (where "level must be \"error\"")
                        else if
                          Option.bind (J.member "message" r) (fun m ->
                              Option.bind (J.member "text" m) J.to_string_opt)
                          |> Option.fold ~none:true ~some:(( = ) "")
                        then Error (where "missing message text")
                        else if
                          Option.bind location (fun pl ->
                              Option.bind (J.member "artifactLocation" pl) (fun al ->
                                  Option.bind (J.member "uri" al) J.to_string_opt))
                          |> Option.fold ~none:true ~some:(( = ) "")
                        then Error (where "missing artifact uri")
                        else if
                          (* SARIF regions are fully 1-based. *)
                          region_int "startLine" |> Option.fold ~none:true ~some:(fun v -> v < 1)
                          || region_int "startColumn"
                             |> Option.fold ~none:true ~some:(fun v -> v < 1)
                        then Error (where "region start must be 1-based")
                        else Ok ()
                  in
                  List.to_seq results
                  |> Seq.fold_lefti
                       (fun acc i r ->
                         match acc with Error _ -> acc | Ok () -> check_result i r)
                       (Ok ()))
        | _ -> Error "driver name is not \"intersect-lint\"")
    | _ -> Error "\"runs\" must hold exactly one run"

(* The experiments.json registry index (`intersect_cli experiments
   export`).  The structural registry invariants (dense ids, valid
   lifecycle states, artifact fields only in pairs) are re-checked here so
   a hand-edited index cannot smuggle a state the registry itself would
   reject. *)
let check_experiments doc =
  let statuses = [ "Draft"; "Running"; "Complete"; "Superseded" ] in
  let regens = [ "gate"; "diff"; "none" ] in
  if Option.bind (J.member "registry" doc) J.to_string_opt <> Some "experiments" then
    Error "missing \"registry\": \"experiments\" marker"
  else
    match
      ( Option.bind (J.member "count" doc) J.to_int_opt,
        Option.bind (J.member "entries" doc) J.to_list_opt )
    with
    | None, _ -> Error "missing \"count\""
    | _, None -> Error "missing \"entries\" list"
    | Some _, Some [] -> Error "empty \"entries\" list"
    | Some count, Some entries ->
        if List.length entries <> count then
          Error (Printf.sprintf "count %d does not match %d entries" count (List.length entries))
        else
          let check_entry i entry =
            let where msg = Printf.sprintf "entry %d: %s" i msg in
            let str name = Option.bind (J.member name entry) J.to_string_opt in
            let nonempty name =
              match str name with
              | None -> Error (where (Printf.sprintf "missing %S" name))
              | Some "" -> Error (where (Printf.sprintf "empty %S" name))
              | Some s -> Ok s
            in
            match Option.bind (J.member "id" entry) J.to_int_opt with
            | None -> Error (where "missing \"id\"")
            | Some id when id <> i + 1 ->
                Error (where (Printf.sprintf "id %d breaks the dense 1..N order" id))
            | Some _ -> (
                let required =
                  [ "file"; "slug"; "title"; "status"; "anchor"; "roadmap";
                    "hypothesis"; "reproduce"; "regen" ]
                in
                let first_bad =
                  List.fold_left
                    (fun acc name ->
                      match acc with Error _ -> acc | Ok () -> Result.map ignore (nonempty name))
                    (Ok ()) required
                in
                match first_bad with
                | Error _ as e -> e
                | Ok () ->
                    let get name = Option.get (str name) in
                    if not (List.mem (get "status") statuses) then
                      Error (where (Printf.sprintf "unknown status %S" (get "status")))
                    else if not (List.mem (get "regen") regens) then
                      Error (where (Printf.sprintf "unknown regen mode %S" (get "regen")))
                    else if
                      not
                        (String.length (get "file") > String.length "experiments/"
                        && String.starts_with ~prefix:"experiments/" (get "file")
                        && String.ends_with ~suffix:".md" (get "file"))
                    then Error (where "file is not an experiments/*.md path")
                    else
                      let artifact = str "artifact" in
                      let keys =
                        Option.bind (J.member "artifact_keys" entry) J.to_list_opt
                        |> Option.value ~default:[]
                      in
                      if artifact = None && (keys <> [] || str "json_check" <> None) then
                        Error (where "artifact_keys/json_check without an artifact")
                      else Ok ())
          in
          List.to_seq entries
          |> Seq.fold_lefti
               (fun acc i entry -> match acc with Error _ -> acc | Ok () -> check_entry i entry)
               (Ok ())

let catalogue =
  [
    ( "bench-chaos",
      fun doc -> rejudge ~decode:Chaos.of_json ~violations:Chaos.invariant_violations doc );
    ("bench-hotpath", fun doc -> Result.map ignore (Regress.of_json doc));
    ( "bench-sweep",
      rejudge ~decode:Sweep.of_json ~render:Sweep.verdict_json ~violations:(fun _ -> []) );
    ( "bench-telemetry",
      rejudge ~decode:Telemetry.overhead_of_json
        ~render:(fun r -> Telemetry.overhead_json r)
        ~violations:(Telemetry.overhead_violations ~max_ratio:Telemetry.committed_max_ratio) );
    ("experiments", check_experiments);
    ("lint-report", check_lint_report);
    ("lint-sarif", check_lint_sarif);
  ]

let modes = List.map fst catalogue
let bench_modes = List.filter (String.starts_with ~prefix:"bench-") modes

let check ~mode doc =
  match List.assoc_opt mode catalogue with
  | Some f -> Result.map_error (Printf.sprintf "%s schema: %s" mode) (f doc)
  | None -> Error (Printf.sprintf "unknown schema mode %S (known: %s)" mode (String.concat ", " modes))
