(* The enhanced fork-join pool (§III-C) at the edges of its scheduling
   contract (coverage, nesting, exceptions, degenerate pools), its
   telemetry, and a differential pool-vs-no-pool pass over every paper
   program. *)

module Nd = Runtime.Ndarray
module Pool = Runtime.Pool
module S = Runtime.Scalar
module T = Support.Telemetry

let nd = Alcotest.testable Nd.pp Nd.equal

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

(* --- pool scheduling edge cases -------------------------------------------------- *)

(* Every index visited exactly once over a spread of bounds (including
   non-zero lo, single-index and empty ranges). *)
let test_chunked_coverage () =
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun (lo, hi) ->
      let n = max 0 (hi - lo) in
      let hits = Array.make (max 1 n) 0 in
      Pool.parallel_for pool lo hi (fun i -> hits.(i - lo) <- hits.(i - lo) + 1);
      Array.iteri
        (fun i c ->
          if n > 0 && c <> 1 then
            Alcotest.failf "index %d visited %d times (lo=%d hi=%d)" (i + lo) c
              lo hi)
        hits)
    [ (0, 1_000); (13, 977); (0, 5); (0, 1); (5, 5); (9, 3) ]

let test_pool_degenerate () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: need at least one thread") (fun () ->
      ignore (Pool.create 0));
  Pool.with_pool 1 (fun pool ->
      Alcotest.(check int) "1-thread pool" 1 (Pool.threads pool);
      let sum = ref 0 in
      Pool.parallel_for pool 0 100 (fun i -> sum := !sum + i);
      Alcotest.(check int) "inline execution" 4950 !sum);
  Pool.with_pool 4 (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool 3 3 (fun _ -> hit := true);
      Pool.parallel_for pool 7 2 (fun _ -> hit := true);
      Alcotest.(check bool) "empty ranges never run the body" false !hit)

(* A parallel op issued from inside a worker's share must not deadlock on
   the single job slot: it executes inline in the outer region. *)
let test_nested_dispatch () =
  Pool.with_pool 4 @@ fun pool ->
  let outer = Pool.threads pool in
  let counts = Array.make (outer * 100) 0 in
  Pool.run pool (fun t _n ->
      Pool.parallel_for pool 0 100 (fun i ->
          let c = (t * 100) + i in
          counts.(c) <- counts.(c) + 1));
  Alcotest.(check bool) "every nested iteration ran exactly once" true
    (Array.for_all (fun c -> c = 1) counts)

exception Chunk_boom

let test_exception_mid_chunk () =
  Printexc.record_backtrace true;
  Pool.with_pool 4 @@ fun pool ->
  let raised =
    match
      Pool.parallel_for pool 0 10_000 (fun i ->
          if i = 7_777 then raise Chunk_boom)
    with
    | () -> false
    | exception Chunk_boom -> true
  in
  Alcotest.(check bool) "exception escapes the region" true raised;
  (* the pool must be fully reusable after a failed region *)
  let sum = ref 0 in
  let cell = Atomic.make 0 in
  Pool.parallel_for pool 0 1_000 (fun _ -> Atomic.incr cell);
  sum := Atomic.get cell;
  Alcotest.(check int) "pool reusable after exception" 1_000 !sum

(* --- pool telemetry ---------------------------------------------------------------- *)

let test_kernel_counters () =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
  @@ fun () ->
  Pool.with_pool 2 (fun pool -> Pool.parallel_for pool 0 100 ignore);
  match List.assoc_opt "pool.chunks_dispatched" (T.counters ()) with
  | Some c when c >= 1 -> ()
  | v ->
      Alcotest.failf "pool.chunks_dispatched expected >= 1, got %s"
        (match v with None -> "none" | Some c -> string_of_int c)

(* --- differential: every paper program, pool vs no pool --------------------------- *)

(* Planted trough signature (Fig 7) so Fig 8's scoring walks real series. *)
let trough_cube =
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  lazy (Nd.init_float [| 3; 4; 40 |] (fun ix -> ts ix.(2)))

(* An SSH field with actual eddies (values below the -0.25 threshold) so
   Fig 4's connected components labels something. *)
let eddy_inputs =
  lazy
    (let cube, _ = Eddy.Ssh_gen.generate ~lat:10 ~lon:12 ~time:3 ~n_eddies:2 ~seed:11 () in
     let dates = Nd.init_int [| 3 |] (fun ix -> 1012000 + ix.(0)) in
     (cube, dates))

let run_differential ?pool ~inputs ~outputs src =
  Tmp.with_dir @@ fun dir ->
  List.iter (fun (name, m) -> Interp.Eval.provide_input ~dir name m) inputs;
  Runtime.Rc.reset ();
  (match Driver.run ~dir ?pool ~config:(Driver.explain_config full) full src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "differential run failed: %s" (Driver.diags_to_string ds));
  let leaks = Runtime.Rc.live_count () in
  (List.map (fun name -> Interp.Eval.fetch_output ~dir name) outputs, leaks)

let differential_programs () =
  let cube = Lazy.force trough_cube in
  let eddy_cube, dates = Lazy.force eddy_inputs in
  [
    ("fig1", Eddy.Programs.fig1_temporal_mean, [ ("ssh.data", cube) ],
     [ "means.data" ]);
    ("fig9 transformed", Eddy.Programs.fig9_transformed,
     [ ("ssh.data", cube) ], [ "means.data" ]);
    (* tile/interchange scripts need a perfect For nest, which auto-par's
       ParFor outer loop is not — the split+unroll script transforms the
       inner fold loop and composes with parallel lowering *)
    ("fig9 split+unroll",
     Eddy.Programs.fig9_with_script "split k by 4, kin, kout. unroll kin by 4",
     [ ("ssh.data", cube) ], [ "means.data" ]);
    ("fig1 slice copy", Eddy.Programs.fig1_with_slice_copy,
     [ ("ssh.data", cube) ], [ "means.data" ]);
    ("fig8", Eddy.Programs.fig8_scoring, [ ("ssh.data", cube) ],
     [ "temporalScores.data" ]);
    ("fig4", Eddy.Programs.fig4_conncomp,
     [ ("ssh.data", eddy_cube); ("dates.data", dates) ],
     [ "eddyLabels.data" ]);
  ]

(* Scheduling must be unobservable: with auto-par lowering on both sides,
   a 4-worker pool and no pool at all must produce identical outputs
   (bit-for-bit — parallel regions only ever write disjoint elements). *)
let test_differential_pool_vs_none () =
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun (label, src, inputs, outputs) ->
      let seq, leaks_seq = run_differential ~inputs ~outputs src in
      let par, leaks_par = run_differential ~pool ~inputs ~outputs src in
      List.iter2
        (fun a b ->
          Alcotest.check nd (label ^ ": pool output identical") a b)
        seq par;
      Alcotest.(check int) (label ^ ": no leaks (seq)") 0 leaks_seq;
      Alcotest.(check int) (label ^ ": no leaks (pool)") 0 leaks_par)
    (differential_programs ())

(* The examples/ program (a fold with-loop over a vector) returns through
   the interpreter value, not a written matrix. *)
let test_differential_example_program () =
  let src =
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 8);
  for (int i = 0; i < 8; i++) { v[i] = i; }
  int total = with ([0] <= [i] < [8]) fold (+, 0, v[i]);
  return total;
}
|}
  in
  let run ?pool () =
    match Driver.run ?pool ~config:(Driver.explain_config full) full src [] with
    | Driver.Ok_ (Interp.Eval.VScal (S.I n)) -> n
    | Driver.Ok_ v ->
        Alcotest.failf "unexpected value %a" Interp.Eval.pp_value v
    | Driver.Failed ds -> Alcotest.failf "%s" (Driver.diags_to_string ds)
  in
  let seq = run () in
  let par = Pool.with_pool 4 (fun pool -> run ~pool ()) in
  Alcotest.(check int) "example program value" 28 seq;
  Alcotest.(check int) "pool matches" seq par

let suite =
  [
    Alcotest.test_case "chunked scheduling coverage" `Quick
      test_chunked_coverage;
    Alcotest.test_case "degenerate pools" `Quick test_pool_degenerate;
    Alcotest.test_case "nested dispatch from a worker" `Quick
      test_nested_dispatch;
    Alcotest.test_case "exception mid-chunk, pool reusable" `Quick
      test_exception_mid_chunk;
    Alcotest.test_case "kernel telemetry counters" `Quick
      test_kernel_counters;
    Alcotest.test_case "differential: programs, pool vs none" `Quick
      test_differential_pool_vs_none;
    Alcotest.test_case "differential: example fold program" `Quick
      test_differential_example_program;
  ]
