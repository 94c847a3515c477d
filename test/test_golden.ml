(* Golden suite: the staged pass pipeline against the blessed fixtures
   under test/golden/ — run outputs and the explain report as the
   semantic oracle, emitted C pinned byte for byte (regenerate with
   golden_gen.ml only when the *intended* output changes) — plus the
   pass-manager guarantees: -O0 applies nothing, exactly-once lowering,
   per-pass timing gauges, the --passes reordering payoff, the
   diff-size cap, and the caret-free unknown-pass diagnostics. *)

module R = Support.Remark
module S = Runtime.Scalar

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

let golden_dir = "golden"
let read path = In_channel.with_open_bin path In_channel.input_all

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every fixture stem, from the committed .mc files themselves — a stem
   silently missing from the corpus would hollow the suite out. *)
let stems =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter_map (Filename.chop_suffix_opt ~suffix:".mc")
  |> List.sort compare

let emit ~auto_par src =
  let config = Driver.Pipeline.enable (Driver.default_config all4) "auto-par" auto_par in
  match Driver.compile_to_c ~config all4 src with
  | Driver.Ok_ text -> text
  | Driver.Failed ds ->
      Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)

(* --- emitted C, byte for byte ------------------------------------------- *)

let test_emitted_c_matches_oracle () =
  Alcotest.(check bool) "corpus is non-trivial" true (List.length stems >= 25);
  List.iter
    (fun stem ->
      let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
      List.iter
        (fun (ext, auto_par) ->
          let oracle = read (Filename.concat golden_dir (stem ^ ext)) in
          Alcotest.(check string)
            (Printf.sprintf "%s%s bit-identical" stem ext)
            oracle (emit ~auto_par src))
        [ (".par.c", true); (".seq.c", false) ])
    stems

(* --- interpreter results, byte for byte --------------------------------- *)

let test_run_results_match_oracle () =
  List.iter
    (fun stem ->
      let out = Filename.concat golden_dir (stem ^ ".out") in
      if Sys.file_exists out then
        let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
        let config = Driver.explain_config all4 in
        match Driver.run ~config all4 src [] with
        | Driver.Ok_ v ->
            Alcotest.(check string)
              (stem ^ ".out bit-identical")
              (read out)
              (Fmt.str "%a" Interp.Eval.pp_value v)
        | Driver.Failed ds ->
            Alcotest.failf "%s: run failed: %s" stem
              (Driver.diags_to_string ds))
    stems

(* --- the blessed explain report ------------------------------------------ *)

let test_explain_report_matches_oracle () =
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  match Driver.explain all4 src with
  | Driver.Ok_ _, report ->
      Alcotest.(check string) "default explain bit-identical"
        (read (Filename.concat golden_dir "transform_tiling.explain"))
        (Driver.Explain_report.to_string ~src report)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

(* --- -O0 means no optimization -------------------------------------------- *)

(* With every stage disabled no optimizing pass may report an Applied
   decision on any corpus program (the rc pass only reports bookkeeping). *)
let test_o0_applies_nothing () =
  let config = Driver.Pipeline.set_all (Driver.default_config all4) false in
  List.iter
    (fun stem ->
      let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
      match Driver.explain ~config all4 src with
      | Driver.Ok_ _, report ->
          List.iter
            (fun pass ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s applied at -O0" stem pass)
                0
                (List.length
                   (R.filter ~pass ~kind:R.Applied
                      report.Driver.Explain_report.remarks)))
            [ "fuse"; "copy-elim"; "auto-par"; "transform" ]
      | Driver.Failed ds, _ ->
          Alcotest.failf "%s: explain failed: %s" stem
            (Driver.diags_to_string ds))
    stems

(* --- exactly-once lowering ------------------------------------------------ *)

(* The refactor's headline: explain with every snapshot requested lowers
   once (the old driver re-lowered the program per requested stage), and
   the snapshots do not perturb the remark stream. *)
let test_explain_lowers_exactly_once () =
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  let remarks dump_passes =
    let before = !Cminus.Lower.runs in
    match Driver.explain ~dump_passes all4 src with
    | Driver.Ok_ _, report ->
        Alcotest.(check int)
          (Printf.sprintf "dump=%s lowers exactly once"
             (String.concat "," dump_passes))
          1
          (!Cminus.Lower.runs - before);
        report.Driver.Explain_report.remarks
    | Driver.Failed ds, _ ->
        Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)
  in
  let plain = remarks [] in
  let dumped = remarks [ "all" ] in
  Alcotest.(check int) "same remark count with --dump-ir=all"
    (List.length plain) (List.length dumped);
  List.iter2
    (fun (a : R.t) (b : R.t) ->
      Alcotest.(check string) "same remark text" a.R.message b.R.message;
      Alcotest.(check string) "same pass" a.R.pass b.R.pass)
    plain dumped

(* --- per-pass timing gauges ---------------------------------------------- *)

let test_pass_timing_gauges () =
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Support.Telemetry.set_enabled false)
  @@ fun () ->
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  (match Driver.run all4 src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "run failed: %s" (Driver.diags_to_string ds));
  let gauges = Support.Telemetry.gauges () in
  List.iter
    (fun pass ->
      let name = "pass." ^ pass ^ ".ns" in
      match List.assoc_opt name gauges with
      | Some v ->
          Alcotest.(check bool) (name ^ " is non-negative") true (v >= 0.)
      | None -> Alcotest.failf "gauge %s not exported" name)
    [ "fuse"; "copy-elim"; "auto-par"; "transform"; "rc" ]

(* --- --passes reordering: the payoff -------------------------------------- *)

(* A script that binds the sequential nest but not the auto-parallelized
   one.  Under the default order (auto-par before transform) it
   warn-and-skips; running transform first lets it apply, and auto-par
   still promotes the transformed nest. *)
let reorder_src =
  {|
int main() {
  int m = 8;
  int n = 8;
  Matrix float <2> g = init(Matrix float <2>, m, n);
  g = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float)(i * n + j))
    transform interchange i, j;
  return (int)(with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, g[i, j]));
}
|}

let reordered_config () =
  match
    Driver.Pipeline.of_spec (Driver.default_config all4)
      [ "transform"; "auto-par" ]
  with
  | Ok cfg -> cfg
  | Error bad -> Alcotest.failf "of_spec rejected %S" bad

let count ~pass ~kind remarks = List.length (R.filter ~pass ~kind remarks)

let test_reorder_applies_skipped_script () =
  (* default order, auto-par on: the script cannot bind *)
  (match Driver.explain all4 reorder_src with
  | Driver.Ok_ _, report ->
      let rs = report.Driver.Explain_report.remarks in
      Alcotest.(check int) "default: script skipped" 1
        (count ~pass:"transform" ~kind:R.Skipped rs);
      Alcotest.(check int) "default: nothing applied" 0
        (count ~pass:"transform" ~kind:R.Applied rs)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds));
  (* transform first: the same script applies, and auto-par still fires *)
  match Driver.explain ~config:(reordered_config ()) all4 reorder_src with
  | Driver.Ok_ _, report ->
      let rs = report.Driver.Explain_report.remarks in
      Alcotest.(check int) "reordered: script applied" 1
        (count ~pass:"transform" ~kind:R.Applied rs);
      Alcotest.(check int) "reordered: no skip" 0
        (count ~pass:"transform" ~kind:R.Skipped rs);
      Alcotest.(check bool) "reordered: auto-par still promotes" true
        (count ~pass:"auto-par" ~kind:R.Applied rs >= 1)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

(* Native execution under the reordered pipeline agrees with the
   interpreter bit-for-bit (and its binary occupies its own cache slot —
   the canonical pipeline string is part of the key). *)
let test_reorder_native_matches_interp () =
  (match Native.Toolchain.probe () with
  | Ok _ -> ()
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ());
  let config = reordered_config () in
  let iv =
    match Driver.run ~config all4 reorder_src [] with
    | Driver.Ok_ v -> Fmt.str "%a" Interp.Eval.pp_value v
    | Driver.Failed ds ->
        Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
  in
  Tmp.with_dir @@ fun dir ->
  match Driver.exec ~config ~dir ~cache_dir:dir all4 reorder_src with
  | Driver.Ok_ o ->
      Alcotest.(check string) "native value = interp value" iv
        (Fmt.str "%a" Native.Exec.pp_value o.Native.Exec.value)
  | Driver.Failed ds ->
      Alcotest.failf "native failed: %s" (Driver.diags_to_string ds)

(* Differently-ordered pipelines must never share a cached binary even
   when they emit identical C today. *)
let test_cache_key_separates_pipelines () =
  match Native.Toolchain.probe () with
  | Error _ -> Alcotest.skip ()
  | Ok tc ->
      let k p = Native.Cache.key ~toolchain:tc ~pipeline:p "int main(){}" in
      let default_ = Driver.Pipeline.canon (Driver.default_config all4) in
      let reordered = Driver.Pipeline.canon (reordered_config ()) in
      Alcotest.(check bool) "configs render differently" true
        (default_ <> reordered);
      Alcotest.(check bool) "distinct cache keys" true
        (k default_ <> k reordered);
      Alcotest.(check string) "empty pipeline keeps pre-pipeline digests"
        (Native.Cache.key ~toolchain:tc "int main(){}")
        (k "")

(* --- unknown pass names --------------------------------------------------- *)

let test_of_spec_rejects_unknown () =
  (match
     Driver.Pipeline.of_spec (Driver.default_config all4) [ "fuse"; "bogus" ]
   with
  | Error bad -> Alcotest.(check string) "names the culprit" "bogus" bad
  | Ok _ -> Alcotest.fail "of_spec accepted an unknown pass");
  Alcotest.(check (list string)) "known passes, registration order"
    [ "fuse"; "copy-elim"; "auto-par"; "transform" ]
    (Driver.Pipeline.known (Driver.default_config all4))

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

let test_cli_unknown_pass_diagnostic () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    Tmp.with_dir @@ fun dir ->
    let prog = Filename.concat dir "prog.mc" in
    Out_channel.with_open_text prog (fun oc ->
        output_string oc "int main() { return 0; }\n");
    let err = Filename.concat dir "err.txt" in
    let code =
      Sys.command
        (Printf.sprintf "%s emit --passes fuse,bogus %s > /dev/null 2> %s"
           (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote err))
    in
    Alcotest.(check int) "exits 2" 2 code;
    let text = In_channel.with_open_text err In_channel.input_all in
    Alcotest.(check bool) "names the unknown pass" true
      (contains "unknown --passes pass \"bogus\"" text);
    Alcotest.(check bool) "lists the known passes" true
      (contains "fuse, copy-elim, auto-par, transform" text);
    Alcotest.(check bool) "no caret art" false (contains "^" text);
    (* --dump-ir typos get the same treatment *)
    let code =
      Sys.command
        (Printf.sprintf "%s explain --dump-ir copyelim %s > /dev/null 2> %s"
           (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote err))
    in
    Alcotest.(check int) "--dump-ir typo exits 2" 2 code;
    let text = In_channel.with_open_text err In_channel.input_all in
    Alcotest.(check bool) "--dump-ir typo names the pass" true
      (contains "unknown --dump-ir pass \"copyelim\"" text);
    Alcotest.(check bool) "--dump-ir diagnostic is caret-free" false
      (contains "^" text)
  end

(* --- diff-size cap --------------------------------------------------------- *)

let test_ir_diff_cap_falls_back_to_full_dumps () =
  let line i = Printf.sprintf "line %d" i in
  let big n tag =
    String.concat "\n" (List.init n (fun i -> if i = 0 then tag else line i))
  in
  let over = Cir.Snapshot.max_diff_lines + 1 in
  let sink = Cir.Snapshot.create ~passes:[ "lower"; "fuse" ] ~diff:true () in
  Cir.Snapshot.record sink ~pass:"lower" ~label:"program" (big over "a");
  Cir.Snapshot.record sink ~pass:"fuse" ~label:"program" (big over "b");
  let text = Cir.Snapshot.to_string sink in
  Alcotest.(check bool) "visible skip note" true
    (contains
       (Printf.sprintf
          "(diff skipped: snapshot exceeds %d lines; showing both versions \
           in full)"
          Cir.Snapshot.max_diff_lines)
       text);
  Alcotest.(check bool) "before version dumped" true
    (contains "<<< lower" text);
  Alcotest.(check bool) "after version dumped" true (contains ">>> fuse" text);
  (* under the cap the same pair produces a real unified diff *)
  let small = Cir.Snapshot.create ~passes:[ "lower"; "fuse" ] ~diff:true () in
  Cir.Snapshot.record small ~pass:"lower" ~label:"program" (big 10 "a");
  Cir.Snapshot.record small ~pass:"fuse" ~label:"program" (big 10 "b");
  let text = Cir.Snapshot.to_string small in
  Alcotest.(check bool) "small diff has -/+ hunks" true
    (contains "-a" text && contains "+b" text);
  Alcotest.(check bool) "small diff is not a full dump" false
    (contains "diff skipped" text)

let suite =
  [
    Alcotest.test_case "emitted C bit-identical to oracle (corpus)" `Quick
      test_emitted_c_matches_oracle;
    Alcotest.test_case "interpreter results bit-identical to oracle" `Quick
      test_run_results_match_oracle;
    Alcotest.test_case "default explain report bit-identical to oracle" `Quick
      test_explain_report_matches_oracle;
    Alcotest.test_case "-O0 applies no optimization (corpus)" `Quick
      test_o0_applies_nothing;
    Alcotest.test_case "explain --dump-ir=all lowers exactly once" `Quick
      test_explain_lowers_exactly_once;
    Alcotest.test_case "pass.<name>.ns gauges exported" `Quick
      test_pass_timing_gauges;
    Alcotest.test_case "--passes transform,auto-par applies skipped script"
      `Quick test_reorder_applies_skipped_script;
    Alcotest.test_case "reordered pipeline: native = interp" `Quick
      test_reorder_native_matches_interp;
    Alcotest.test_case "pipeline string separates cache keys" `Quick
      test_cache_key_separates_pipelines;
    Alcotest.test_case "of_spec rejects unknown passes" `Quick
      test_of_spec_rejects_unknown;
    Alcotest.test_case "cli: unknown --passes diagnostic is caret-free" `Quick
      test_cli_unknown_pass_diagnostic;
    Alcotest.test_case "--ir-diff caps the LCS and dumps both versions" `Quick
      test_ir_diff_cap_falls_back_to_full_dumps;
  ]
