module Q = Temporal.Q

let pp_finding ppf (f : Analyzer.finding) =
  match f with
  | Analyzer.Unsatisfiable { index; binding } ->
      Format.fprintf ppf
        "binding #%d (%s): spatial constraint is semantically \
         unsatisfiable — the permission can never be granted"
        index binding
  | Analyzer.Vacuous { index; binding } ->
      Format.fprintf ppf
        "binding #%d (%s): spatial constraint is universally true — it \
         restricts nothing"
        index binding
  | Analyzer.Shadowed { index; binding; by_index; by } ->
      Format.fprintf ppf
        "binding #%d (%s): shadowed by binding #%d (%s) — removing it \
         changes no decision"
        index binding by_index by
  | Analyzer.Unexercisable { index; binding } ->
      Format.fprintf ppf
        "binding #%d (%s): unexercisable — no performable itinerary \
         reaches a covered access under the constraint"
        index binding
  | Analyzer.Temporal_excluded { index; binding; needed; budget } ->
      Format.fprintf ppf
        "binding #%d (%s): temporally excluded — earliest possible grant \
         at t=%a, but the whole-journey budget %a is already spent"
        index binding Q.pp needed Q.pp budget

let pp ppf (r : Analyzer.report) =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) r.findings;
  Format.fprintf ppf "%d binding(s), alphabet %d%s: %d finding(s)@]"
    r.bindings r.alphabet
    (if r.truncated then " (truncated: semantic pass skipped)" else "")
    (List.length r.findings)

let finding_to_json (f : Analyzer.finding) =
  match f with
  | Analyzer.Unsatisfiable { index; binding } ->
      Printf.sprintf {|{"kind":"unsatisfiable","index":%d,"binding":"%s"}|}
        index (Obs.Export.escape binding)
  | Analyzer.Vacuous { index; binding } ->
      Printf.sprintf {|{"kind":"vacuous","index":%d,"binding":"%s"}|} index
        (Obs.Export.escape binding)
  | Analyzer.Shadowed { index; binding; by_index; by } ->
      Printf.sprintf
        {|{"kind":"shadowed","index":%d,"binding":"%s","by_index":%d,"by":"%s"}|}
        index
        (Obs.Export.escape binding)
        by_index (Obs.Export.escape by)
  | Analyzer.Unexercisable { index; binding } ->
      Printf.sprintf {|{"kind":"unexercisable","index":%d,"binding":"%s"}|}
        index (Obs.Export.escape binding)
  | Analyzer.Temporal_excluded { index; binding; needed; budget } ->
      Printf.sprintf
        {|{"kind":"temporal-excluded","index":%d,"binding":"%s","needed":"%s","budget":"%s"}|}
        index (Obs.Export.escape binding)
        (Obs.Export.escape (Q.to_string needed))
        (Obs.Export.escape (Q.to_string budget))

let admin_to_json ~user ~perm ~server (o : Admin.outcome) =
  let s = o.Admin.stats in
  let head =
    Printf.sprintf
      {|"kind":"admin-query","user":"%s","perm":"%s","server":"%s"|}
      (Obs.Export.escape user)
      (Obs.Export.escape (Rbac.Perm.to_string perm))
      (Obs.Export.escape server)
  in
  let tail =
    Printf.sprintf
      {|"expanded":%d,"generated":%d,"leaf_calls":%d,"leaf_hits":%d,"visited_hits":%d,"antichain_hits":%d,"antichain":%b|}
      s.Admin.expanded s.Admin.generated s.Admin.leaf_calls s.Admin.leaf_hits
      s.Admin.visited_hits s.Admin.antichain_hits s.Admin.antichain
  in
  match o.Admin.verdict with
  | Admin.Leak { ops; witness } ->
      let ops_json =
        String.concat ","
          (List.map
             (fun op ->
               "\"" ^ Obs.Export.escape (Admin.op_to_string op) ^ "\"")
             ops)
      in
      let steps_json =
        String.concat ","
          (List.map
             (fun (a, t) ->
               Printf.sprintf {|{"access":"%s","time":"%s"}|}
                 (Obs.Export.escape (Format.asprintf "%a" Sral.Access.pp a))
                 (Obs.Export.escape (Q.to_string t)))
             witness.Safety.steps)
      in
      Printf.sprintf
        {|{%s,"verdict":"leak","ops":[%s],"entry":"%s","steps":[%s],%s}|}
        head ops_json
        (Obs.Export.escape witness.Safety.entry)
        steps_json tail
  | Admin.Safe { explored } ->
      Printf.sprintf {|{%s,"verdict":"safe","explored":%d,%s}|} head explored
        tail
  | Admin.Undetermined { reason; explored } ->
      Printf.sprintf
        {|{%s,"verdict":"undetermined","reason":"%s","explored":%d,%s}|} head
        (Obs.Export.escape reason) explored tail

let to_jsonl (r : Analyzer.report) =
  let header =
    Printf.sprintf
      {|{"kind":"report","bindings":%d,"alphabet":%d,"truncated":%b,"findings":%d}|}
      r.bindings r.alphabet r.truncated
      (List.length r.findings)
  in
  String.concat ""
    (List.map
       (fun line -> line ^ "\n")
       (header :: List.map finding_to_json r.findings))
