(* Runtime substrate: shapes, ndarrays (construction, [At]/[All]
   slicing, comparison masks, file IO), refcounting invariants, the
   enhanced fork-join pool, simulated SSE. *)

open Runtime

let sc = Alcotest.testable Scalar.pp Scalar.equal
let nd = Alcotest.testable Ndarray.pp Ndarray.equal

(* --- shape ---------------------------------------------------------------- *)

let test_shape_basics () =
  let s = [| 3; 4; 5 |] in
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "size" 60 (Shape.size s);
  Alcotest.(check (array int)) "strides" [| 20; 5; 1 |] (Shape.strides s);
  Alcotest.(check int) "offset" ((2 * 20) + (3 * 5) + 4)
    (Shape.offset s [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "unoffset" [| 2; 3; 4 |] (Shape.unoffset s 59);
  Alcotest.check_raises "oob"
    (Shape.Shape_error "index 4 out of bounds for dimension 1 of [3x4x5]")
    (fun () -> ignore (Shape.offset s [| 0; 4; 0 |]))

let prop_offset_unoffset =
  QCheck.Test.make ~name:"unoffset inverts offset" ~count:200
    QCheck.(
      make
        Gen.(
          let* dims = list_size (1 -- 4) (1 -- 6) in
          let sh = Array.of_list dims in
          let* off = 0 -- (max 0 (Shape.size sh - 1)) in
          return (sh, off)))
    (fun (sh, off) -> Shape.offset sh (Shape.unoffset sh off) = off)

let test_shape_iter_order () =
  let s = [| 2; 3 |] in
  let seen = ref [] in
  Shape.iter s (fun idx -> seen := Array.copy idx :: !seen);
  Alcotest.(check int) "count" 6 (List.length !seen);
  Alcotest.(check (array int)) "first row-major" [| 0; 0 |]
    (List.nth (List.rev !seen) 0);
  Alcotest.(check (array int)) "second row-major" [| 0; 1 |]
    (List.nth (List.rev !seen) 1);
  Alcotest.(check (array int)) "last" [| 1; 2 |] (List.hd !seen)

(* --- ndarray: construction and elementwise ops ---------------------------- *)

let m23 = Ndarray.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |]

let test_cmp_and_logic () =
  let mask = Ndarray.cmp_scalar Scalar.Gt m23 (Scalar.F 3.5) ~scalar_left:false in
  Alcotest.check nd "m > 3.5"
    (Ndarray.of_bool_array [| 2; 3 |] [| false; false; false; true; true; true |])
    mask;
  (* scalar on the left flips the comparison: 3.5 < m is m > 3.5 *)
  Alcotest.check nd "3.5 < m" mask
    (Ndarray.cmp_scalar Scalar.Lt m23 (Scalar.F 3.5) ~scalar_left:true);
  (* int matrix against a float scalar compares as floats *)
  let ints = Ndarray.of_int_array [| 3 |] [| 1; 2; 3 |] in
  Alcotest.check nd "int m <= 2.0"
    (Ndarray.of_bool_array [| 3 |] [| true; true; false |])
    (Ndarray.cmp_scalar Scalar.Le ints (Scalar.F 2.) ~scalar_left:false)

(* --- ndarray: indexing (§III-A3) -------------------------------------------- *)

let cube =
  (* 3x4x5 cube with value 100i + 10j + k at [i,j,k] *)
  Ndarray.init_float [| 3; 4; 5 |] (fun idx ->
      float_of_int ((100 * idx.(0)) + (10 * idx.(1)) + idx.(2)))

let test_index_standard () =
  (* (a) standard indexing extracts a single element *)
  let s = Ndarray.slice cube [| At 2; At 3; At 1 |] in
  Alcotest.(check int) "rank 0" 0 (Ndarray.rank s);
  Alcotest.check sc "value" (Scalar.F 231.) (Ndarray.get s [||])

let test_index_whole_dim () =
  (* (c) data[0, end, :] returns a vector of size dimSize(data,2) *)
  let v = Ndarray.slice cube [| At 0; At 3; All |] in
  Alcotest.(check (array int)) "vector" [| 5 |] (Ndarray.shape v);
  Alcotest.check nd "values"
    (Ndarray.of_float_array [| 5 |] [| 30.; 31.; 32.; 33.; 34. |])
    v

let test_io_roundtrip () =
  let file = Filename.temp_file "mmc" ".mat" in
  Ndarray.write_file file cube;
  let back = Ndarray.read_file file in
  Sys.remove file;
  Alcotest.check nd "float roundtrip" cube back;
  let file = Filename.temp_file "mmc" ".mat" in
  let ints = Ndarray.init_int [| 3; 3 |] (fun i -> i.(0) - i.(1)) in
  Ndarray.write_file file ints;
  let back = Ndarray.read_file file in
  Sys.remove file;
  Alcotest.check nd "int roundtrip" ints back

(* --- refcounting ----------------------------------------------------------- *)

let test_rc_lifecycle () =
  Rc.reset ();
  let c = Rc.alloc ~bytes:64 "payload" in
  Alcotest.(check int) "live after alloc" 1 (Rc.live_count ());
  Alcotest.(check string) "deref" "payload" (Rc.get c);
  Rc.incr_ c;
  Rc.decr_ c;
  Alcotest.(check bool) "still live" true (Rc.is_live c);
  Rc.decr_ c;
  Alcotest.(check bool) "freed at zero" false (Rc.is_live c);
  Alcotest.(check int) "registry empty" 0 (Rc.live_count ());
  Alcotest.check_raises "use after free" (Rc.Use_after_free c.Rc.id) (fun () ->
      ignore (Rc.get c));
  Alcotest.check_raises "double free" (Rc.Double_free c.Rc.id) (fun () ->
      Rc.decr_ c)

let prop_rc_scripts =
  (* Random inc/dec scripts that never exceed the known count cannot
     double-free, and cells freed exactly once leave no residue. *)
  QCheck.Test.make ~name:"rc scripts balance" ~count:100
    QCheck.(make Gen.(list_size (1 -- 30) (0 -- 2)))
    (fun script ->
      Rc.reset ();
      let c = Rc.alloc 0 in
      let count = ref 1 in
      List.iter
        (fun op ->
          if !count > 0 then
            match op with
            | 0 | 1 ->
                Rc.incr_ c;
                incr count
            | _ ->
                Rc.decr_ c;
                decr count)
        script;
      while !count > 0 do
        Rc.decr_ c;
        decr count
      done;
      (not (Rc.is_live c)) && Rc.live_count () = 0)

(* --- pool -------------------------------------------------------------------- *)

let test_pool_parallel_for () =
  Pool.with_pool 4 (fun pool ->
      let n = 10_000 in
      let a = Array.make n 0 in
      Pool.parallel_for pool 0 n (fun i -> a.(i) <- i * 2);
      let expect = Array.init n (fun i -> i * 2) in
      Alcotest.(check bool) "all indices written once" true (a = expect))

let test_pool_reuse () =
  (* The enhanced fork-join model's whole point: many regions, same threads. *)
  Pool.with_pool 4 (fun pool ->
      let acc = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.parallel_for pool 0 64 (fun _ -> Atomic.incr acc)
      done;
      Alcotest.(check int) "200 small regions" (200 * 64) (Atomic.get acc))

let test_pool_single_thread () =
  Pool.with_pool 1 (fun pool ->
      let hits = ref 0 in
      Pool.parallel_for pool 0 10 (fun _ -> incr hits);
      Alcotest.(check int) "degenerate pool runs inline" 10 !hits)

let test_naive_forkjoin () =
  let a = Array.make 1000 0 in
  Pool.naive_parallel_for 3 0 1000 (fun i -> a.(i) <- i);
  Alcotest.(check bool) "naive covers range" true
    (a = Array.init 1000 Fun.id)

let prop_pool_matches_serial =
  QCheck.Test.make ~name:"parallel_for = serial for any size/threads" ~count:20
    QCheck.(make Gen.(pair (1 -- 4) (0 -- 500)))
    (fun (threads, n) ->
      Pool.with_pool threads (fun pool ->
          let a = Array.make (max n 1) 0 in
          Pool.parallel_for pool 0 n (fun i -> a.(i) <- i + 1);
          let ok = ref true in
          for i = 0 to n - 1 do
            if a.(i) <> i + 1 then ok := false
          done;
          !ok))

(* --- simd ---------------------------------------------------------------------- *)

let test_simd_ops () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let v = Simd.load a 2 ~width:4 in
  Alcotest.(check int) "width" 4 (Simd.width v);
  Alcotest.(check (float 0.)) "lane" 5. (Simd.lane v 2);
  let s = Simd.splat 10. ~width:4 in
  let r = Simd.add v s in
  let out = Array.make 8 0. in
  Simd.store out 0 r;
  Alcotest.(check (float 0.)) "stored" 13. out.(0);
  Alcotest.(check (float 0.)) "stored last" 16. out.(3);
  Alcotest.(check (float 1e-6)) "hsum" 58. (Simd.hsum r)

let prop_simd_equals_scalar =
  QCheck.Test.make ~name:"vector ops equal scalar loops (f32)" ~count:100
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 4) (float_bound_inclusive 100.))
            (array_size (return 4) (float_bound_inclusive 100.))))
    (fun (x, y) ->
      let vx = Simd.load x 0 ~width:4 and vy = Simd.load y 0 ~width:4 in
      let check op fop =
        let v = op vx vy in
        Array.for_all Fun.id
          (Array.init 4 (fun k ->
               Simd.lane v k = Simd.to_f32 (fop (Simd.to_f32 x.(k)) (Simd.to_f32 y.(k)))))
      in
      check Simd.add ( +. ) && check Simd.sub ( -. ) && check Simd.mul ( *. ))

let suite =
  [
    Alcotest.test_case "shape basics" `Quick test_shape_basics;
    QCheck_alcotest.to_alcotest prop_offset_unoffset;
    Alcotest.test_case "shape iter order" `Quick test_shape_iter_order;
    Alcotest.test_case "compare and logic" `Quick test_cmp_and_logic;
    Alcotest.test_case "index: standard" `Quick test_index_standard;
    Alcotest.test_case "index: whole dim" `Quick test_index_whole_dim;
    Alcotest.test_case "matrix file IO" `Quick test_io_roundtrip;
    Alcotest.test_case "rc lifecycle" `Quick test_rc_lifecycle;
    QCheck_alcotest.to_alcotest prop_rc_scripts;
    Alcotest.test_case "pool parallel_for" `Quick test_pool_parallel_for;
    Alcotest.test_case "pool region reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool single thread" `Quick test_pool_single_thread;
    Alcotest.test_case "naive fork-join" `Quick test_naive_forkjoin;
    QCheck_alcotest.to_alcotest prop_pool_matches_serial;
    Alcotest.test_case "simd ops" `Quick test_simd_ops;
    QCheck_alcotest.to_alcotest prop_simd_equals_scalar;
  ]
