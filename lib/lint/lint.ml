module Absdom = Absdom
module Reldom = Reldom
module State = State
module Trace = Trace
module Deadness = Deadness
module Resource = Resource
module Diagnostic = Diagnostic
module Pass = Pass
module Passes = Passes
module Dqc_rules = Dqc_rules
module Sarif = Sarif

type report = {
  diagnostics : Diagnostic.t list;
  errors : int;
  warnings : int;
  hints : int;
  instructions : int;
  passes_run : int;
}

exception Rejected of report

let default_passes = Passes.general
let dqc_passes ?max_live () = default_passes @ Dqc_rules.passes ?max_live ()

let certifier_passes =
  [ Passes.cond_after_clobber; Passes.nonzero_global_phase_reset ]

let run ?(passes = default_passes) c =
  Obs.with_span "lint.run"
    ~attrs:[ ("passes", string_of_int (List.length passes)) ]
    (fun () ->
      let trace = Trace.run c in
      let instructions = Trace.length trace in
      Obs.incr ~n:instructions "lint.instructions";
      let diagnostics =
        List.concat_map
          (fun (p : Pass.t) ->
            let ds = p.run trace in
            if ds <> [] && Obs.enabled () then
              Obs.incr ~n:(List.length ds) ("lint.pass." ^ p.name);
            ds)
          passes
        |> List.sort Diagnostic.compare
      in
      let count severity =
        List.length
          (List.filter
             (fun (d : Diagnostic.t) -> d.severity = severity)
             diagnostics)
      in
      {
        diagnostics;
        errors = count Diagnostic.Error;
        warnings = count Diagnostic.Warning;
        hints = count Diagnostic.Hint;
        instructions;
        passes_run = List.length passes;
      })

let clean r = r.errors = 0

let summary r =
  Printf.sprintf "%d error%s, %d warning%s, %d hint%s over %d instruction%s \
                  (%d passes)"
    r.errors
    (if r.errors = 1 then "" else "s")
    r.warnings
    (if r.warnings = 1 then "" else "s")
    r.hints
    (if r.hints = 1 then "" else "s")
    r.instructions
    (if r.instructions = 1 then "" else "s")
    r.passes_run

let pp_report fmt r =
  List.iter (fun d -> Format.fprintf fmt "%a@." Diagnostic.pp d) r.diagnostics;
  Format.fprintf fmt "%s%s@."
    (if clean r then "lint: clean — " else "lint: FAILED — ")
    (summary r)

let report_to_string r = Format.asprintf "%a" pp_report r

let to_json ?name r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "dqc.lint/1");
      ( "circuit",
        match name with Some n -> Obs.Json.String n | None -> Obs.Json.Null );
      ("instructions", Obs.Json.Int r.instructions);
      ("passes", Obs.Json.Int r.passes_run);
      ("errors", Obs.Json.Int r.errors);
      ("warnings", Obs.Json.Int r.warnings);
      ("hints", Obs.Json.Int r.hints);
      ("clean", Obs.Json.Bool (clean r));
      ( "diagnostics",
        Obs.Json.List (List.map Diagnostic.to_json r.diagnostics) );
    ]

(* every catalogued pass, deduplicated by name — the SARIF rule
   description table *)
let rule_catalogue () =
  List.fold_left
    (fun acc (p : Pass.t) ->
      if List.mem_assoc p.Pass.name acc then acc
      else (p.Pass.name, p.Pass.description) :: acc)
    []
    (dqc_passes () @ certifier_passes)
  |> List.rev

let to_sarif ?name r =
  Sarif.document ?uri:name ~rules:(rule_catalogue ()) r.diagnostics

let () =
  Printexc.register_printer (function
    | Rejected r ->
        Some
          (Printf.sprintf "Lint.Rejected: %s\n%s" (summary r)
             (String.concat "\n"
                (List.map Diagnostic.to_string
                   (List.filter
                      (fun (d : Diagnostic.t) ->
                        d.severity = Diagnostic.Error)
                      r.diagnostics))))
    | _ -> None)
