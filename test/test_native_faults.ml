(* Supervised native execution: crash triage to source spans, emitted-C
   runtime guards, MM_FAILPOINTS parity with the interpreter's failpoint
   registry, supervisor deadline kills, sanitizer builds, and the native
   fault matrix — the PR-4 chaos matrix re-run against `mmc exec`.

   Cases needing a real C compiler probe first and skip visibly when
   none is installed; everything heavy runs under a hard SIGALRM
   deadline so a supervision bug fails the test instead of wedging the
   suite. *)

module Nd = Runtime.Ndarray
module T = Support.Telemetry

let nd = Alcotest.testable Nd.pp Nd.equal

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

exception Deadline of string

let with_deadline ?(secs = 120) label f =
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> raise (Deadline label)))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* One binary cache for the whole suite: the fault matrix reuses two
   compiles (guards off/on) across its sixteen cells. *)
let suite_cache = lazy (Tmp.suite_dir ())

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let failed_text ~src = function
  | Driver.Ok_ _ -> Alcotest.fail "expected a failure diagnostic"
  | Driver.Failed ds -> Driver.diags_to_string ~src ds

(* --- satellite: signal-death decoding is a pure function ----------------- *)

let test_describe_signal_exit () =
  (* A 128+N exit status (the child's shell-style report of a signal
     death the supervisor did not witness directly) must decode to the
     signal, never surface as a bare "exit code 139". *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_failed { exit_code = 139; stderr_text = "" })
  in
  Alcotest.(check bool)
    (Printf.sprintf "139 decodes to signal 11 (got: %s)" msg)
    true
    (contains msg "killed by signal 11");
  Alcotest.(check bool) "no raw exit code in the message" false
    (contains msg "exit code");
  (* the last stderr line rides along when there is one *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_failed
         { exit_code = 134; stderr_text = "noise\nfree(): invalid pointer\n" })
  in
  Alcotest.(check bool)
    (Printf.sprintf "stderr tail attached (got: %s)" msg)
    true
    (contains msg "killed by signal 6" && contains msg "free(): invalid pointer");
  (* plain nonzero exits keep the existing mm_fatal taxonomy: stderr text
     verbatim when present, the code otherwise *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_failed { exit_code = 70; stderr_text = "mm_runtime: boom\n" })
  in
  Alcotest.(check string) "mm_fatal stderr preserved" "mm_runtime: boom" msg

(* --- satellite: result-protocol parser is total --------------------------- *)

let test_parse_output_total () =
  let bad text =
    match Native.Exec.parse_output text with
    | Ok _ -> Alcotest.failf "parsed %S" text
    | Error (Native.Exec.Bad_output { message; offset }) -> (message, offset)
    | Error e ->
        Alcotest.failf "unexpected error class for %S: %s" text
          (Native.Exec.describe_error e)
  in
  (* truncated result line *)
  let m, off = bad "__mm_result\n" in
  Alcotest.(check bool) ("truncated line named: " ^ m) true
    (contains m "truncated");
  Alcotest.(check (option int)) "offset at line start" (Some 0) off;
  (* matrix header with missing extents *)
  let m, _ = bad "__mm_result mat f 2 3\n__mm_data 0 0 0\n" in
  Alcotest.(check bool) ("rank/extent mismatch named: " ^ m) true
    (contains m "rank");
  (* output ends mid-tuple *)
  let m, _ = bad "__mm_result tuple 2\n__mm_result int 1\n" in
  Alcotest.(check bool) ("mid-result end named: " ^ m) true
    (contains m "ended mid-result");
  (* corrupt tuple arity cannot allocate before erroring *)
  let m, _ = bad "__mm_result tuple 99999999\n" in
  Alcotest.(check bool) ("arity ceiling named: " ^ m) true
    (contains m "arity");
  (* the offending line's byte offset is reported, not just the first *)
  let _, off = bad "__mm_result int 7\n__mm_livex\n" in
  Alcotest.(check bool) "offset points past the first line" true
    (match off with Some o -> o > 0 | None -> false);
  (* garbage that is not protocol at all *)
  let m, _ = bad "Segmentation fault\n" in
  Alcotest.(check bool) ("no-protocol case named: " ^ m) true
    (contains m "no __mm_result")

let test_span_string_roundtrip () =
  List.iter
    (fun s ->
      match Native.Exec.parse_span_string s with
      | None -> Alcotest.failf "span %S did not parse" s
      | Some sp ->
          Alcotest.(check string) ("roundtrip " ^ s) s
            (Support.Pos.span_to_string sp))
    [ "3:3-45"; "2:3-4:41"; "1:1-2" ];
  List.iter
    (fun s ->
      if Native.Exec.parse_span_string s <> None then
        Alcotest.failf "bogus span %S parsed" s)
    [ "-"; "x"; "0:1-2"; "3:3"; "a:b-c" ]

(* --- guard faults render carets ------------------------------------------ *)

let oob_src =
  {|int main() {
  Matrix int <1> v = init(Matrix int <1>, 4);
  for (int i = 0; i < 10; i++) { v[i] = i; }
  return v[0];
}
|}

let test_guard_oob_caret () =
  with_deadline "guard oob" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~cache_dir:(Lazy.force suite_cache)
      ~guards:true full oob_src
  in
  let text = failed_text ~src:oob_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the out-of-bounds subscript (got: %s)" text)
    true
    (contains text "out of bounds");
  Alcotest.(check bool)
    (Printf.sprintf "caret excerpt at the faulting loop (got: %s)" text)
    true
    (contains text "for (int i = 0; i < 10; i++)" && contains text "^");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code")

(* Unguarded, the same out-of-bounds write is undefined behaviour — the
   only guarantee is that whatever happens comes back structured (a
   value, or a diagnostic), never an OCaml exception. *)
let test_oob_unguarded_structured () =
  with_deadline "oob unguarded" @@ fun () ->
  ignore (ensure_cc ());
  match
    Driver.exec ~cache_dir:(Lazy.force suite_cache) full
      oob_src
  with
  | Driver.Ok_ _ -> ()
  | Driver.Failed (d :: _) ->
      Alcotest.(check bool) "error severity" true
        (d.Support.Diag.severity = Support.Diag.Error)
  | Driver.Failed [] -> Alcotest.fail "failed without diagnostics"

(* --- native failpoints ---------------------------------------------------- *)

let genarray_src =
  {|float main() {
  Matrix float <3> g =
    with ([0,0,0] <= [i,j,k] < [3,4,5])
    genarray([3,4,5], (i + j + k) / 4.0);
  return with ([0,0,0] <= [i,j,k] < [3,4,5]) fold (+, 0.0, g[i,j,k]);
}
|}

let test_failpoint_alloc_diag () =
  with_deadline "native.alloc failpoint" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~cache_dir:(Lazy.force suite_cache)
      ~failpoints:"native.alloc@1" full genarray_src
  in
  let text = failed_text ~src:genarray_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the failpoint (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.alloc");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code")

let test_failpoint_crash_span_with_guards () =
  (* Under --guards the crash breadcrumbs attribute even an abort() from
     a failpoint to the enclosing source statement: the diagnostic must
     carry a caret excerpt, not anchor at the dummy span. *)
  with_deadline "failpoint crash span" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~cache_dir:(Lazy.force suite_cache)
      ~guards:true ~failpoints:"native.alloc@1" full genarray_src
  in
  let text = failed_text ~src:genarray_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "failpoint named with caret (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.alloc"
    && contains text "^")

let test_failpoint_read_matrix_diag () =
  with_deadline "native.io.read_matrix failpoint" @@ fun () ->
  ignore (ensure_cc ());
  Tmp.with_dir @@ fun dir ->
  let cube =
    Nd.init_float [| 2; 3; 4 |] (fun ix ->
        float_of_int ((ix.(0) * 5) + ix.(1) + ix.(2)))
  in
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  let src = Eddy.Programs.fig1_temporal_mean in
  let outcome =
    Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache)
      ~failpoints:"native.io.read_matrix@1" full src
  in
  let text = failed_text ~src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the failpoint (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.io.read_matrix")

(* --- supervisor deadline kill --------------------------------------------- *)

(* Two billion serially-dependent float adds: -O2 cannot fold them away
   (floating point is not associative without -ffast-math), so the
   binary genuinely spins until the supervisor kills it. *)
let spin_src =
  {|float main() {
  float acc = 0.0;
  for (int i = 0; i < 2000000000; i++) { acc = acc + 1.0; }
  return acc;
}
|}

let test_supervisor_timeout_kill () =
  with_deadline ~secs:60 "supervisor timeout" @@ fun () ->
  ignore (ensure_cc ());
  let t0 = Unix.gettimeofday () in
  let outcome =
    Driver.exec ~cache_dir:(Lazy.force suite_cache)
      ~timeout_s:0.5 full spin_src
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let text = failed_text ~src:spin_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the --timeout deadline (got: %s)" text)
    true
    (contains text "--timeout");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code");
  (* deadline + SIGTERM grace + compile slack, not the loop's minutes *)
  Alcotest.(check bool)
    (Printf.sprintf "killed promptly (%.1fs)" elapsed)
    true (elapsed < 30.)

let test_timeout_telemetry () =
  with_deadline ~secs:60 "timeout telemetry" @@ fun () ->
  ignore (ensure_cc ());
  with_telemetry @@ fun () ->
  (match
     Driver.exec ~cache_dir:(Lazy.force suite_cache)
       ~timeout_s:0.5 full spin_src
   with
  | Driver.Ok_ _ -> Alcotest.fail "expected a timeout failure"
  | Driver.Failed _ -> ());
  match List.assoc_opt "native.timeout" (T.gauges ()) with
  | Some v when v >= 1. -> ()
  | v ->
      Alcotest.failf "native.timeout gauge: %s"
        (match v with None -> "absent" | Some f -> string_of_float f)

(* --- sanitizer builds ------------------------------------------------------ *)

let test_sanitized_corpus_runs () =
  with_deadline ~secs:300 "sanitized runs" @@ fun () ->
  ignore (ensure_cc ());
  let iv =
    match Driver.run full genarray_src [] with
    | Driver.Ok_ (Interp.Eval.VScal v) -> v
    | Driver.Ok_ _ -> Alcotest.fail "interp returned a non-scalar"
    | Driver.Failed ds ->
        Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
  in
  List.iter
    (fun mode ->
      match Native.Toolchain.probe ~sanitize:mode () with
      | Error (Native.Toolchain.Sanitizer_unsupported _ as e) ->
          (* visible skip, not silence: the toolchain genuinely lacks it *)
          Printf.printf "SKIP: %s\n%!" (Native.Toolchain.describe_error e)
      | Error e ->
          Alcotest.failf "probe failed: %s" (Native.Toolchain.describe_error e)
      | Ok _ -> (
          match
            Driver.exec ~cache_dir:(Lazy.force suite_cache)
              ~sanitize:mode full genarray_src
          with
          | Driver.Failed ds ->
              Alcotest.failf "-fsanitize=%s run failed: %s" mode
                (Driver.diags_to_string ds)
          | Driver.Ok_ o ->
              (* sanitized binaries occupy their own cache slot: this is
                 the first sanitized build of this program, so it cannot
                 have hit the unsanitized entry *)
              Alcotest.(check bool)
                (mode ^ ": distinct cache slot")
                false o.Native.Exec.from_cache;
              Alcotest.(check bool)
                (mode ^ ": result matches the interpreter")
                true
                (o.Native.Exec.value = Native.Exec.RScal iv)))
    [ "address"; "undefined" ]

(* --- guards emission is warning-clean -------------------------------------- *)

let test_guarded_corpus_werror () =
  with_deadline ~secs:300 "guarded corpus -Werror" @@ fun () ->
  let tc = ensure_cc () in
  Tmp.with_dir @@ fun build ->
  let werror = { tc with Native.Toolchain.cflags = [ "-Werror" ] } in
  List.iteri
    (fun i (name, src) ->
      match Driver.compile_to_c ~guards:true ~exec_harness:true full src with
      | Driver.Failed ds ->
          Alcotest.failf "%s: emit failed: %s" name (Driver.diags_to_string ds)
      | Driver.Ok_ c_text -> (
          let c_file = Filename.concat build (Printf.sprintf "g%d.c" i) in
          Out_channel.with_open_text c_file (fun oc ->
              Out_channel.output_string oc c_text);
          Out_channel.with_open_text (Filename.concat build "mm_runtime.h")
            (fun oc -> Out_channel.output_string oc Native.Runtime_c.header);
          Out_channel.with_open_text (Filename.concat build "mm_runtime.c")
            (fun oc -> Out_channel.output_string oc Native.Runtime_c.impl);
          match
            Native.Toolchain.compile werror
              ~c_files:[ c_file; Filename.concat build "mm_runtime.c" ]
              ~out:(Filename.concat build (Printf.sprintf "g%d.exe" i))
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s (guards) not warning-clean under -Werror: %s"
                name
                (Native.Toolchain.describe_error e)))
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig8", Eddy.Programs.fig8_scoring);
      ("oob", oob_src);
    ]

(* --- the native fault matrix ------------------------------------------------ *)

(* {native.alloc, native.io.read_matrix} x {sequential, 2 OpenMP threads}
   x {fire on the 1st hit, fire on the 5th} x {guards off, guards on}:
   sixteen cells through Fig 1's temporal mean.  The invariant mirrors
   the interpreter matrix: no hang, and either the bit-exact oracle
   output (a failpoint the run never reached, or a parallel crash the
   driver recovered by sequential degrade) or a structured error
   diagnostic — never an OCaml exception, never a bare exit code. *)
let test_native_fault_matrix () =
  with_deadline ~secs:480 "native fault matrix" @@ fun () ->
  ignore (ensure_cc ());
  let cube =
    Nd.init_float [| 4; 5; 30 |] (fun ix ->
        float_of_int ((ix.(0) * 7) + (ix.(1) * 3) + ix.(2)) /. 11.0)
  in
  let src = Eddy.Programs.fig1_temporal_mean in
  let run_case ?failpoints ?(guards = false) ~threads () =
    Tmp.with_dir @@ fun dir ->
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    match
      Driver.exec ~dir ~config:(Driver.explain_config full)
        ~threads ~guards ?failpoints
        ~cache_dir:(Lazy.force suite_cache) full src
    with
    | Driver.Ok_ _ -> Ok (Interp.Eval.fetch_output ~dir "means.data")
    | Driver.Failed ds -> Error ds
  in
  let oracle =
    match run_case ~threads:1 () with
    | Ok m -> m
    | Error ds ->
        Alcotest.failf "clean run failed: %s" (Driver.diags_to_string ds)
  in
  List.iter
    (fun fp_name ->
      List.iter
        (fun threads ->
          List.iter
            (fun k ->
              List.iter
                (fun guards ->
                  let label =
                    Printf.sprintf "%s@%d t%d %s" fp_name k threads
                      (if guards then "guards" else "plain")
                  in
                  let spec = Printf.sprintf "%s@%d" fp_name k in
                  match
                    run_case ~failpoints:spec ~guards ~threads ()
                  with
                  | Ok m ->
                      Alcotest.check nd (label ^ ": output is the oracle")
                        oracle m
                  | Error [] ->
                      Alcotest.failf "%s: failed without diagnostics" label
                  | Error ((d : Support.Diag.t) :: _) ->
                      if d.Support.Diag.severity <> Support.Diag.Error then
                        Alcotest.failf "%s: non-error diagnostic" label;
                      if contains d.Support.Diag.message "exit code" then
                        Alcotest.failf "%s: untriaged exit code: %s" label
                          d.Support.Diag.message)
                [ false; true ])
            [ 1; 5 ])
        [ 1; 2 ])
    [ "native.alloc"; "native.io.read_matrix" ]

(* --- the acceptance scenario ------------------------------------------------ *)

(* A fault-injected crash mid-parallel native run of the eddy detection
   program: the driver must degrade to a sequential rerun with the
   failpoints disarmed, the program must complete, the output must be
   bit-identical to the sequential oracle, and the degradation must be
   visible in telemetry. *)
let test_eddy_degraded_native_acceptance () =
  with_deadline ~secs:300 "eddy native degraded" @@ fun () ->
  ignore (ensure_cc ());
  with_telemetry @@ fun () ->
  let cube, dates =
    let c, _ =
      Eddy.Ssh_gen.generate ~lat:10 ~lon:12 ~time:3 ~n_eddies:2 ~seed:11 ()
    in
    (c, Nd.init_int [| 3 |] (fun ix -> 1012000 + ix.(0)))
  in
  let src = Eddy.Programs.fig4_conncomp in
  let run_case ?failpoints ~threads () =
    Tmp.with_dir @@ fun dir ->
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    Interp.Eval.provide_input ~dir "dates.data" dates;
    match
      Driver.exec ~dir ~config:(Driver.explain_config full)
        ~threads ?failpoints
        ~cache_dir:(Lazy.force suite_cache) full src
    with
    | Driver.Ok_ _ -> Interp.Eval.fetch_output ~dir "eddyLabels.data"
    | Driver.Failed ds ->
        Alcotest.failf "native run failed: %s" (Driver.diags_to_string ds)
  in
  let oracle = run_case ~threads:1 () in
  let got = run_case ~failpoints:"native.alloc@1" ~threads:2 () in
  Alcotest.check nd "degraded output bit-identical to sequential oracle"
    oracle got;
  match List.assoc_opt "native.degraded" (T.gauges ()) with
  | Some v when v >= 1. -> ()
  | v ->
      Alcotest.failf "native.degraded gauge: %s"
        (match v with None -> "absent" | Some f -> string_of_float f)

let suite =
  [
    Alcotest.test_case "signal exits decode, never raw codes" `Quick
      test_describe_signal_exit;
    Alcotest.test_case "result-protocol parser is total" `Quick
      test_parse_output_total;
    Alcotest.test_case "span strings round-trip" `Quick
      test_span_string_roundtrip;
    Alcotest.test_case "guards: OOB subscript renders a caret" `Quick
      test_guard_oob_caret;
    Alcotest.test_case "unguarded OOB stays structured" `Quick
      test_oob_unguarded_structured;
    Alcotest.test_case "failpoint: native.alloc diagnostic" `Quick
      test_failpoint_alloc_diag;
    Alcotest.test_case "failpoint: crash span under guards" `Quick
      test_failpoint_crash_span_with_guards;
    Alcotest.test_case "failpoint: native.io.read_matrix diagnostic" `Quick
      test_failpoint_read_matrix_diag;
    Alcotest.test_case "supervisor: deadline kill names --timeout" `Quick
      test_supervisor_timeout_kill;
    Alcotest.test_case "supervisor: timeout exports telemetry" `Quick
      test_timeout_telemetry;
    Alcotest.test_case "sanitizers: corpus runs under asan/ubsan" `Quick
      test_sanitized_corpus_runs;
    Alcotest.test_case "guards: corpus emits -Werror-clean C" `Quick
      test_guarded_corpus_werror;
    Alcotest.test_case "native fault matrix: 16 cells" `Quick
      test_native_fault_matrix;
    Alcotest.test_case "acceptance: native degrade is bit-identical" `Quick
      test_eddy_degraded_native_acceptance;
  ]
