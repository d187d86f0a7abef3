let default_size () = max 1 (Domain.recommended_domain_count ())
