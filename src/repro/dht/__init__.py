"""DHT substrate: key space, ring membership, routing, load balancing."""
