(* Unit tests for the simulated crypto substrate. *)

let check = Alcotest.check

let rng () = Support.Rng.create 99

(* ---- Hash ---- *)

let test_hash_deterministic () =
  check Alcotest.bool "same input same digest" true
    (Int64.equal (Cryptosim.Hash.digest "abc") (Cryptosim.Hash.digest "abc"));
  check Alcotest.bool "different input different digest" false
    (Int64.equal (Cryptosim.Hash.digest "abc") (Cryptosim.Hash.digest "abd"))

(* Published 64-bit FNV-1a test vectors: every signature, MAC, sealed
   box and store digest is pinned to these bits. *)
let test_hash_fnv1a_vectors () =
  List.iter
    (fun (input, hex) -> check Alcotest.string input hex (Cryptosim.Hash.digest_hex input))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

let test_hash_hex () =
  check Alcotest.int "16 hex chars" 16 (String.length (Cryptosim.Hash.digest_hex "x"));
  check Alcotest.string "high bytes" "a5f234e1ec9d701e"
    (Cryptosim.Hash.digest_hex "\xff\x00abc")

(* Streaming: feeding the pieces of a string in order digests the
   whole string. *)
let prop_hash_feed_concat =
  QCheck2.Test.make ~name:"feed of the pieces = digest of the concatenation" ~count:200
    QCheck2.Gen.(list_size (int_range 0 5) string)
    (fun parts ->
      Int64.equal
        (List.fold_left Cryptosim.Hash.feed Cryptosim.Hash.init parts)
        (Cryptosim.Hash.digest (String.concat "" parts)))

let test_hash_combine () =
  let a = Cryptosim.Hash.digest "a" and b = Cryptosim.Hash.digest "b" in
  check Alcotest.bool "combine not commutative" false
    (Int64.equal (Cryptosim.Hash.combine a b) (Cryptosim.Hash.combine b a))

(* ---- Hmac ---- *)

let test_hmac_roundtrip () =
  let key = Cryptosim.Hmac.random_key (rng ()) in
  let tag = Cryptosim.Hmac.mac key "hello" in
  check Alcotest.bool "verifies" true (Cryptosim.Hmac.verify key "hello" tag);
  check Alcotest.bool "wrong message" false (Cryptosim.Hmac.verify key "hellp" tag);
  let other = Cryptosim.Hmac.key_of_string "other" in
  check Alcotest.bool "wrong key" false (Cryptosim.Hmac.verify other "hello" tag)

(* Tags as the concatenating MAC computed them: every request MAC and
   auth-reply MAC on the wire is pinned to these bytes. *)
let test_hmac_vectors () =
  let key = Cryptosim.Hmac.key_of_string "k" in
  check Alcotest.string "key" "k:af63e64c8601fd8a" (Cryptosim.Hmac.key_to_string key);
  List.iter
    (fun (msg, tag) -> check Alcotest.string msg tag (Cryptosim.Hmac.mac key msg))
    [
      ("", "497a441e8f7c327d");
      ("hello", "e2acaf421cb9e3bd");
      ("client=3\nchallenge=ab", "228fe2d6a69035a9");
    ]

let prop_hmac_is_framed_digest =
  QCheck2.Test.make ~name:"mac = digest of key|msg|key" ~count:200
    QCheck2.Gen.(pair string (list_size (int_range 0 4) string))
    (fun (material, parts) ->
      let key = Cryptosim.Hmac.key_of_string material in
      let k = Cryptosim.Hmac.key_to_string key and msg = String.concat "" parts in
      let expected = Cryptosim.Hash.digest_hex (k ^ "|" ^ msg ^ "|" ^ k) in
      String.equal (Cryptosim.Hmac.mac key msg) expected
      && String.equal (Cryptosim.Hmac.mac_parts key parts) expected)

let test_hmac_key_derivation () =
  check Alcotest.bool "same material same key" true
    (Cryptosim.Hmac.key_of_string "s" = Cryptosim.Hmac.key_of_string "s");
  check Alcotest.bool "different material different key" false
    (Cryptosim.Hmac.key_of_string "s" = Cryptosim.Hmac.key_of_string "t")

(* ---- Keys ---- *)

let test_keys_sign_verify () =
  let kp = Cryptosim.Keys.generate (rng ()) ~owner:"alice" in
  let s = Cryptosim.Keys.sign kp "msg" in
  check Alcotest.bool "verifies" true
    (Cryptosim.Keys.verify ~public:(Cryptosim.Keys.public kp) "msg" ~signature:s);
  check Alcotest.bool "wrong message" false
    (Cryptosim.Keys.verify ~public:(Cryptosim.Keys.public kp) "other" ~signature:s);
  check Alcotest.bool "forged signature" false
    (Cryptosim.Keys.verify ~public:(Cryptosim.Keys.public kp) "msg"
       ~signature:(Cryptosim.Keys.forge_signature "msg"));
  check Alcotest.bool "unknown public key" false
    (Cryptosim.Keys.verify ~public:"pub:nobody:0" "msg" ~signature:s)

(* Signatures as the concatenating signer computed them: every signed
   answer and auth request on the wire is pinned to these bytes. *)
let test_keys_sign_vectors () =
  let kp = Cryptosim.Keys.generate (Support.Rng.create 1) ~owner:"service" in
  check Alcotest.string "public" "pub:service:6463dbb00cc3cd9e" (Cryptosim.Keys.public kp);
  List.iter
    (fun (msg, signature) ->
      check Alcotest.string msg signature (Cryptosim.Keys.sign kp msg))
    [
      ("", "43cf3e3c31416c91");
      ("msg", "a9658e17511746d6");
      ("nonce=n\nkind=isolation", "97f0dc3860e1d666");
    ]

let test_keys_cross_verify () =
  let r = rng () in
  let a = Cryptosim.Keys.generate r ~owner:"a" and b = Cryptosim.Keys.generate r ~owner:"b" in
  let s = Cryptosim.Keys.sign a "msg" in
  check Alcotest.bool "b's key rejects a's signature" false
    (Cryptosim.Keys.verify ~public:(Cryptosim.Keys.public b) "msg" ~signature:s)

(* ---- Box ---- *)

let test_box_roundtrip () =
  let kp = Cryptosim.Keys.generate (rng ()) ~owner:"service" in
  let sealed = Cryptosim.Box.seal ~recipient:(Cryptosim.Keys.public kp) "secret query" in
  check Alcotest.bool "opens" true
    (Cryptosim.Box.open_ ~keypair:kp sealed = Some "secret query");
  check Alcotest.bool "ciphertext differs from plaintext" false
    (String.equal sealed "secret query")

let test_box_wrong_recipient () =
  let r = rng () in
  let a = Cryptosim.Keys.generate r ~owner:"a" and b = Cryptosim.Keys.generate r ~owner:"b" in
  let sealed = Cryptosim.Box.seal ~recipient:(Cryptosim.Keys.public a) "x" in
  check Alcotest.bool "wrong key cannot open" true
    (Cryptosim.Box.open_ ~keypair:b sealed = None)

let test_box_tamper () =
  let kp = Cryptosim.Keys.generate (rng ()) ~owner:"s" in
  let sealed = Cryptosim.Box.seal ~recipient:(Cryptosim.Keys.public kp) "payload" in
  let tampered =
    String.mapi (fun i c -> if i = String.length sealed - 1 then Char.chr (Char.code c lxor 1) else c) sealed
  in
  check Alcotest.bool "tampered box rejected" true
    (Cryptosim.Box.open_ ~keypair:kp tampered = None)

let test_box_short_input () =
  let kp = Cryptosim.Keys.generate (rng ()) ~owner:"s" in
  check Alcotest.bool "garbage rejected" true (Cryptosim.Box.open_ ~keypair:kp "short" = None)

let test_box_empty_plaintext () =
  let kp = Cryptosim.Keys.generate (rng ()) ~owner:"s" in
  let sealed = Cryptosim.Box.seal ~recipient:(Cryptosim.Keys.public kp) "" in
  check Alcotest.bool "empty plaintext roundtrips" true
    (Cryptosim.Box.open_ ~keypair:kp sealed = Some "")

(* ---- Attest ---- *)

let test_attest_roundtrip () =
  let m = Cryptosim.Attest.measure ~code_identity:"rvaas-v1" in
  let q = Cryptosim.Attest.quote ~measurement:m ~nonce:"n1" in
  check Alcotest.bool "verifies" true (Cryptosim.Attest.verify q ~expected:m ~nonce:"n1");
  check Alcotest.bool "wrong nonce" false (Cryptosim.Attest.verify q ~expected:m ~nonce:"n2");
  let other = Cryptosim.Attest.measure ~code_identity:"evil-v1" in
  check Alcotest.bool "wrong measurement" false
    (Cryptosim.Attest.verify q ~expected:other ~nonce:"n1")

let test_attest_forge_rejected () =
  let m = Cryptosim.Attest.measure ~code_identity:"rvaas-v1" in
  let q = Cryptosim.Attest.forge ~measurement:m ~nonce:"n1" in
  check Alcotest.bool "forged quote rejected" false
    (Cryptosim.Attest.verify q ~expected:m ~nonce:"n1")

(* ---- qcheck ---- *)

let prop_box_roundtrip =
  QCheck2.Test.make ~name:"box roundtrips arbitrary strings" ~count:200
    QCheck2.Gen.string (fun s ->
      let kp = Cryptosim.Keys.generate (Support.Rng.create 1) ~owner:"p" in
      Cryptosim.Box.open_ ~keypair:kp
        (Cryptosim.Box.seal ~recipient:(Cryptosim.Keys.public kp) s)
      = Some s)

let prop_hmac_verifies =
  QCheck2.Test.make ~name:"hmac verifies arbitrary strings" ~count:200 QCheck2.Gen.string
    (fun s ->
      let key = Cryptosim.Hmac.key_of_string "k" in
      Cryptosim.Hmac.verify key s (Cryptosim.Hmac.mac key s))

let () =
  Alcotest.run "cryptosim"
    [
      ( "hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "fnv-1a vectors" `Quick test_hash_fnv1a_vectors;
          Alcotest.test_case "hex" `Quick test_hash_hex;
          Alcotest.test_case "combine" `Quick test_hash_combine;
          QCheck_alcotest.to_alcotest prop_hash_feed_concat;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "roundtrip" `Quick test_hmac_roundtrip;
          Alcotest.test_case "vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "key derivation" `Quick test_hmac_key_derivation;
          QCheck_alcotest.to_alcotest prop_hmac_is_framed_digest;
          QCheck_alcotest.to_alcotest prop_hmac_verifies;
        ] );
      ( "keys",
        [
          Alcotest.test_case "sign/verify" `Quick test_keys_sign_verify;
          Alcotest.test_case "sign vectors" `Quick test_keys_sign_vectors;
          Alcotest.test_case "cross verify" `Quick test_keys_cross_verify;
        ] );
      ( "box",
        [
          Alcotest.test_case "roundtrip" `Quick test_box_roundtrip;
          Alcotest.test_case "wrong recipient" `Quick test_box_wrong_recipient;
          Alcotest.test_case "tamper" `Quick test_box_tamper;
          Alcotest.test_case "short input" `Quick test_box_short_input;
          Alcotest.test_case "empty plaintext" `Quick test_box_empty_plaintext;
          QCheck_alcotest.to_alcotest prop_box_roundtrip;
        ] );
      ( "attest",
        [
          Alcotest.test_case "roundtrip" `Quick test_attest_roundtrip;
          Alcotest.test_case "forge rejected" `Quick test_attest_forge_rejected;
        ] );
    ]
