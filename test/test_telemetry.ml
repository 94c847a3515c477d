(* Telemetry subsystem: span nesting, counter atomicity under the domain
   pool, Chrome-trace export well-formedness, pipeline instrumentation
   coverage, the copy-elimination lowering flag, pool exception
   propagation, and the --stats/--trace CLI surface. *)

module T = Support.Telemetry

let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

(* JSON parsing comes from Support.Json (shared with the bench harness's
   baseline comparison and profile-schema checks). *)

module J = Support.Json

let parse_json = J.parse
let obj_field = J.field

(* --- spans -------------------------------------------------------------------- *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let r =
    T.with_span ~phase:"test" "outer" (fun () ->
        T.with_span ~phase:"test" "inner" (fun () -> 42))
  in
  Alcotest.(check int) "body result" 42 r;
  match T.spans () with
  | [ inner; outer ] ->
      (* completion order: the nested span finishes first *)
      Alcotest.(check string) "inner first" "inner" inner.T.sp_name;
      Alcotest.(check string) "outer second" "outer" outer.T.sp_name;
      Alcotest.(check int) "inner depth" 1 inner.T.sp_depth;
      Alcotest.(check int) "outer depth" 0 outer.T.sp_depth;
      Alcotest.(check bool) "outer encloses inner" true
        (outer.T.sp_dur >= inner.T.sp_dur
        && inner.T.sp_start >= outer.T.sp_start)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_on_exception () =
  with_telemetry @@ fun () ->
  (try T.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (T.spans ()))

let test_disabled_is_noop () =
  T.reset ();
  let c = T.counter "test.disabled" in
  T.bump c;
  T.add c 41;
  let spans_before = List.length (T.spans ()) in
  ignore (T.with_span "invisible" (fun () -> 7));
  Alcotest.(check int) "counter untouched" 0 (T.read c);
  Alcotest.(check int) "no span recorded" spans_before
    (List.length (T.spans ()))

(* --- counters under real parallelism ------------------------------------------ *)

let test_counter_atomicity () =
  with_telemetry @@ fun () ->
  let c = T.counter "test.atomic" in
  Runtime.Pool.with_pool 4 (fun pool ->
      Runtime.Pool.parallel_for pool 0 20_000 (fun _ -> T.bump c));
  Alcotest.(check int) "every bump counted exactly once" 20_000 (T.read c);
  let jobs = List.assoc_opt "pool.jobs_dispatched" (T.counters ()) in
  Alcotest.(check (option int)) "one pool job dispatched" (Some 1) jobs

(* --- pool exception propagation (was silently swallowed) ----------------------- *)

exception Boom

let test_pool_exception_reraised () =
  Runtime.Pool.with_pool 3 (fun pool ->
      (match Runtime.Pool.run pool (fun t _ -> if t = 1 then raise Boom) with
      | () -> Alcotest.fail "worker exception was swallowed"
      | exception Boom -> ());
      (* the pool must stay usable after a failed job *)
      let hits = Atomic.make 0 in
      Runtime.Pool.parallel_for pool 0 100 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool usable after failure" 100 (Atomic.get hits))

let test_pool_exception_single_thread () =
  Runtime.Pool.with_pool 1 (fun pool ->
      match Runtime.Pool.run pool (fun _ _ -> raise Boom) with
      | () -> Alcotest.fail "exception lost on 1-thread pool"
      | exception Boom -> ())

let test_pool_exception_counted () =
  with_telemetry @@ fun () ->
  Runtime.Pool.with_pool 2 (fun pool ->
      match Runtime.Pool.run pool (fun _ _ -> raise Boom) with
      | () -> Alcotest.fail "worker exception was swallowed"
      | exception Boom -> ());
  match List.assoc_opt "pool.job_exceptions" (T.counters ()) with
  | Some v -> Alcotest.(check bool) "job_exceptions >= 1" true (v >= 1)
  | None -> Alcotest.fail "pool.job_exceptions counter missing"

(* --- pipeline coverage ---------------------------------------------------------- *)

let test_pipeline_spans () =
  with_telemetry @@ fun () ->
  let c = Driver.compose [ Driver.matrix ] in
  (match
     Driver.run c
       {|int main() {
           Matrix int <1> v = with ([0] <= [i] < [32]) genarray([32], i);
           return with ([0] <= [i] < [32]) fold(+, 0, v[i]);
         }|}
       []
   with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "pipeline failed: %s" (Driver.diags_to_string ds));
  let names = List.map (fun sp -> sp.T.sp_name) (T.spans ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s recorded" expected)
        true
        (List.mem expected names))
    [
      "driver.compose";
      "compose.lalr";
      "frontend.parse";
      "frontend.check";
      "driver.lower";
      "driver.run";
    ];
  (match List.assoc_opt "scan.tokens" (T.counters ()) with
  | Some v -> Alcotest.(check bool) "tokens scanned" true (v > 0)
  | None -> Alcotest.fail "scan.tokens counter missing");
  match T.gauges () with
  | g ->
      Alcotest.(check bool) "lalr.states gauge set" true
        (match List.assoc_opt "lalr.states" g with
        | Some v -> v > 0.
        | None -> false)

(* --- Chrome trace export --------------------------------------------------------- *)

let test_chrome_trace_wellformed () =
  Tmp.with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.json" in
  with_telemetry (fun () ->
      ignore
        (T.with_span ~phase:"test" "alpha" (fun () ->
             T.with_span ~phase:"test" "beta" (fun () -> 1)));
      T.bump (T.counter "test.chrome");
      T.set_gauge "test.gauge" 3.5;
      T.write_chrome_trace path);
  let text = In_channel.with_open_text path In_channel.input_all in
  let j = parse_json text in
  let events =
    match obj_field "traceEvents" j with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let name_of e =
    match obj_field "name" e with Some (J.Str s) -> s | _ -> "?"
  in
  let ph_of e = match obj_field "ph" e with Some (J.Str s) -> s | _ -> "?" in
  Alcotest.(check bool) "alpha X event present" true
    (List.exists (fun e -> name_of e = "alpha" && ph_of e = "X") events);
  Alcotest.(check bool) "beta X event present" true
    (List.exists (fun e -> name_of e = "beta" && ph_of e = "X") events);
  Alcotest.(check bool) "counter C event present" true
    (List.exists (fun e -> name_of e = "test.chrome" && ph_of e = "C") events);
  (* every X event carries numeric ts and dur *)
  List.iter
    (fun e ->
      if ph_of e = "X" then
        match (obj_field "ts" e, obj_field "dur" e) with
        | Some (J.Num _), Some (J.Num _) -> ()
        | _ -> Alcotest.failf "X event %s lacks ts/dur" (name_of e))
    events

(* --- copy-elimination lowering flag ----------------------------------------------- *)

let copy_elim_src =
  {|int main() {
      Matrix int <2> a = with ([0,0] <= [i,j] < [6,6]) genarray([6,6], i + j);
      Matrix int <2> b = a[:, :];
      return with ([0,0] <= [i,j] < [6,6]) fold(+, 0, b[i, j]);
    }|}

let test_copy_elim_changes_emitted_c () =
  let c = Driver.compose [ Driver.matrix ] in
  let emit ~copy_elim =
    match
      Driver.compile_to_c ~config:(Driver.Pipeline.enable (Driver.default_config c) "copy-elim" copy_elim) c
        copy_elim_src
    with
    | Driver.Ok_ text -> text
    | Driver.Failed ds ->
        Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)
  in
  let with_elim = emit ~copy_elim:true in
  let without_elim = emit ~copy_elim:false in
  Alcotest.(check bool) "copy_elim changes the generated C" true
    (with_elim <> without_elim);
  (* the program only reads through the alias, so both must agree *)
  let run ~copy_elim =
    match
      Driver.run ~config:(Driver.Pipeline.enable (Driver.default_config c) "copy-elim" copy_elim) c copy_elim_src
        []
    with
    | Driver.Ok_ (Interp.Eval.VScal (Runtime.Scalar.I n)) -> n
    | Driver.Ok_ v -> Alcotest.failf "unexpected result %a" Interp.Eval.pp_value v
    | Driver.Failed ds ->
        Alcotest.failf "run failed: %s" (Driver.diags_to_string ds)
  in
  Alcotest.(check int) "same result with and without copy elimination"
    (run ~copy_elim:false) (run ~copy_elim:true)

let test_copy_elim_skips_allocation () =
  with_telemetry @@ fun () ->
  let c = Driver.compose [ Driver.matrix ] in
  (match
     Driver.run ~config:(Driver.default_config c) c
       copy_elim_src []
   with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "run failed: %s" (Driver.diags_to_string ds));
  let counters = T.counters () in
  Alcotest.(check (option int)) "identity slice aliased" (Some 1)
    (List.assoc_opt "lower.identity_slices_aliased" counters);
  (* one genarray allocation; the slice did not allocate a second matrix *)
  Alcotest.(check (option int)) "single matrix allocation" (Some 1)
    (List.assoc_opt "interp.mat_allocs" counters)

(* Aliasing must NOT happen when the base or the alias is mutated while
   both are live — the copy semantics of the seed are observable then.
   Each program returns a value that differs if the slice aliases. *)

let run_int ~copy_elim src =
  let c = Driver.compose [ Driver.matrix ] in
  match Driver.run ~config:(Driver.Pipeline.enable (Driver.default_config c) "copy-elim" copy_elim) c src [] with
  | Driver.Ok_ (Interp.Eval.VScal (Runtime.Scalar.I n)) -> n
  | Driver.Ok_ v -> Alcotest.failf "unexpected result %a" Interp.Eval.pp_value v
  | Driver.Failed ds ->
      Alcotest.failf "run failed: %s" (Driver.diags_to_string ds)

let check_copy_semantics name src =
  with_telemetry @@ fun () ->
  let with_elim = run_int ~copy_elim:true src in
  Alcotest.(check (option int))
    (name ^ ": mutated slice is not aliased")
    (Some 0)
    (List.assoc_opt "lower.identity_slices_aliased" (T.counters ()));
  Alcotest.(check int)
    (name ^ ": same result with and without copy elimination")
    (run_int ~copy_elim:false src) with_elim

let test_no_alias_when_base_mutated () =
  check_copy_semantics "base mutated after slice"
    {|int main() {
        Matrix int <1> a = with ([0] <= [i] < [8]) genarray([8], i);
        Matrix int <1> b = a[:];
        a[0] = 100;
        return b[0] * 1000 + a[0];
      }|}

let test_no_alias_when_alias_mutated () =
  check_copy_semantics "write through the alias"
    {|int main() {
        Matrix int <1> a = with ([0] <= [i] < [8]) genarray([8], i + 1);
        Matrix int <1> b = a[:];
        b[0] = 55;
        return a[0] * 1000 + b[0];
      }|}

let test_no_alias_when_transitive_alias_mutated () =
  check_copy_semantics "write through a second-hop handle"
    {|int main() {
        Matrix int <1> a = with ([0] <= [i] < [8]) genarray([8], i + 1);
        Matrix int <1> b = a[:];
        Matrix int <1> c = b;
        c[0] = 77;
        return a[0] * 1000 + b[0];
      }|}

(* Two matrix parameters may be one matrix: a write through either must
   keep a slice of the other a copy. *)
let test_no_alias_across_parameters () =
  check_copy_semantics "write through another parameter"
    {|int g(Matrix int <1> a, Matrix int <1> h) {
        Matrix int <1> b = a[:];
        h[0] = 100;
        return b[0];
      }
      int main() {
        Matrix int <1> a = with ([0] <= [i] < [8]) genarray([8], i + 1);
        return g(a, a);
      }|}

(* --- CLI surface -------------------------------------------------------------------- *)

(* --- native exec attribution ---------------------------------------------------- *)

(* The native leg of [driver.exec] is split into [cache.lookup],
   [native.probe], [native.compile] and [native.run].  A cold exec looks
   up, probes and compiles; a warm one only looks up — its hit stands in
   for the probe, unless the compiler lacks OpenMP, in which case the
   OpenMP slot misses and the probe runs. *)
let test_exec_spans () =
  match Native.Toolchain.probe () with
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()
  | Ok tc ->
      Tmp.with_dir @@ fun cache_dir ->
      let c = Driver.compose [ Driver.matrix ] in
      let exec () =
        with_telemetry @@ fun () ->
        (match Driver.exec ~cache_dir c "int main() { return 7; }" with
        | Driver.Ok_ _ -> ()
        | Driver.Failed ds ->
            Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds));
        List.map (fun sp -> sp.T.sp_name) (T.spans ())
      in
      let has names n = List.mem n names in
      let cold = exec () in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("cold exec has " ^ n) true (has cold n))
        [ "cache.lookup"; "native.probe"; "native.compile"; "native.run" ];
      let warm = exec () in
      Alcotest.(check bool) "warm exec has cache.lookup" true
        (has warm "cache.lookup");
      Alcotest.(check bool) "warm exec has no native.compile" false
        (has warm "native.compile");
      Alcotest.(check bool)
        "warm exec probes only without OpenMP" (not tc.Native.Toolchain.openmp)
        (has warm "native.probe")

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

let test_cli_stats_and_trace () =
  if not (Sys.file_exists mmc_exe) then
    Alcotest.skip ()
  else begin
    Tmp.with_dir @@ fun dir ->
    let prog = Filename.concat dir "prog.xc" in
    Out_channel.with_open_text prog (fun oc ->
        output_string oc
          {|int main() {
              Matrix int <1> v = with ([0] <= [i] < [64]) genarray([64], i);
              return with ([0] <= [i] < [64]) fold(+, 0, v[i]);
            }|});
    let trace = Filename.concat dir "trace.json" in
    let err = Filename.concat dir "stderr.txt" in
    let cmd =
      Printf.sprintf "%s run --threads 2 --stats --trace %s %s > /dev/null 2> %s"
        (Filename.quote mmc_exe) (Filename.quote trace) (Filename.quote prog)
        (Filename.quote err)
    in
    Alcotest.(check int) "mmc run exits 0" 0 (Sys.command cmd);
    let stderr_text = In_channel.with_open_text err In_channel.input_all in
    Alcotest.(check bool) "--stats prints a summary on stderr" true
      (let affix = "telemetry summary" in
       let n = String.length affix and m = String.length stderr_text in
       let rec go i =
         i + n <= m && (String.sub stderr_text i n = affix || go (i + 1))
       in
       go 0);
    let j = parse_json (In_channel.with_open_text trace In_channel.input_all) in
    match obj_field "traceEvents" j with
    | Some (J.Arr evs) ->
        let names =
          List.filter_map (fun e ->
              match obj_field "name" e with Some (J.Str s) -> Some s | _ -> None)
            evs
        in
        List.iter
          (fun expected ->
            Alcotest.(check bool)
              (Printf.sprintf "trace contains %s" expected)
              true (List.mem expected names))
          [
            "driver.compose";
            "frontend.parse";
            "frontend.check";
            "driver.lower";
            "driver.run";
            "pool.jobs_dispatched";
            "pool.worker0.busy_ns";
          ]
    | _ -> Alcotest.fail "--trace file has no traceEvents"
  end

(* ------------------------------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span recorded on exception" `Quick
      test_span_on_exception;
    Alcotest.test_case "disabled telemetry is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "counter atomicity under 4-domain pool" `Quick
      test_counter_atomicity;
    Alcotest.test_case "pool re-raises worker exceptions" `Quick
      test_pool_exception_reraised;
    Alcotest.test_case "pool exception on single thread" `Quick
      test_pool_exception_single_thread;
    Alcotest.test_case "pool exceptions are counted" `Quick
      test_pool_exception_counted;
    Alcotest.test_case "pipeline spans and counters" `Quick
      test_pipeline_spans;
    Alcotest.test_case "chrome trace is well-formed JSON" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "copy_elim changes emitted C, same result" `Quick
      test_copy_elim_changes_emitted_c;
    Alcotest.test_case "copy_elim skips the slice allocation" `Quick
      test_copy_elim_skips_allocation;
    Alcotest.test_case "no aliasing when the base is mutated" `Quick
      test_no_alias_when_base_mutated;
    Alcotest.test_case "no aliasing when the alias is mutated" `Quick
      test_no_alias_when_alias_mutated;
    Alcotest.test_case "no aliasing across handle copies" `Quick
      test_no_alias_when_transitive_alias_mutated;
    Alcotest.test_case "no aliasing across matrix parameters" `Quick
      test_no_alias_across_parameters;
    Alcotest.test_case "exec: cache.lookup and native.probe spans" `Quick
      test_exec_spans;
    Alcotest.test_case "mmc --stats/--trace smoke" `Quick
      test_cli_stats_and_trace;
  ]
